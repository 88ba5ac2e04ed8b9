//! Chaos suite: live-socket tests that inject deterministic faults
//! through `hyperbench-fault` failpoints and assert the resilience
//! contract — every fault is answered structurally (a typed JSON error
//! with the right status, never a hang or a protocol violation), reads
//! keep serving while writes degrade, the supervisor recovers the store
//! without a restart, and the retrying client rides through the whole
//! show losing no acknowledged write.
//!
//! The suite only exists under the `failpoints` feature (the CI `chaos`
//! leg); the default build compiles this file to nothing. Schedules are
//! seeded from `HYPERBENCH_CHAOS_SEED` (fixed in CI) so a failure
//! reproduces exactly.
#![cfg(all(target_os = "linux", feature = "failpoints"))]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hyperbench_api::{
    Client, ClientError, ErrorCode, Json, ListQuery, QueryRequest, QueryResponse, RetryPolicy,
    WriteRequest,
};
use hyperbench_core::format::parse_hg;
use hyperbench_integration_tests::chaos_lock;
use hyperbench_integration_tests::fixture::{doc, expect_api_error, start_writable, tmpdir};
use hyperbench_integration_tests::http::{post, send};
use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig};

/// The chaos seed: fixed in CI, overridable locally to explore. Every
/// randomized schedule derives from it, so a red run reproduces.
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
    /// Uniform-ish draw in `[lo, hi]`.
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Arms (or with an empty spec, clears) failpoints through the
/// test-only debug route; panics unless the server answers 200.
fn arm(addr: SocketAddr, spec: &str) {
    let (status, body) = post(addr, "/debug/failpoints", spec);
    assert_eq!(status, 200, "arming {spec:?} failed: {body}");
}

/// Reads one metric value out of Prometheus text exposition.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(name))
            .then(|| parts.next())??
            .parse()
            .ok()
    })
}

/// The debug route round-trips: arming lists the active points, a bad
/// spec is a structured 400, an empty body clears everything.
#[test]
fn failpoints_route_arms_lists_and_clears() {
    let _guard = chaos_lock();
    let (join, addr, shutdown) = start_writable("route");
    arm(addr, "wal.append=2*off->1*return(x);spill.append=sleep(1)");
    let (status, body) = post(addr, "/debug/failpoints", "");
    assert_eq!(status, 200, "{body}");

    let (status, body) = post(addr, "/debug/failpoints", "wal.append=frobni");
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("invalid_param"),
        "{body}"
    );
    shutdown.shutdown();
    join.join().unwrap();
}

/// The degradation contract end to end: a WAL fsync fault flips the
/// store read-only — writes answer 503 `degraded` with `Retry-After`,
/// reads and meta-only HBQL queries keep serving the last committed
/// snapshot — and once the fault clears, the supervisor recovers the
/// store in place (no restart) and writes flow again.
#[test]
fn degraded_store_sheds_writes_serves_reads_and_recovers() {
    let _guard = chaos_lock();
    let (join, addr, shutdown) = start_writable("degraded");
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
    let a = client.put_new(&WriteRequest::new(doc(0))).unwrap();
    let b = client.put_new(&WriteRequest::new(doc(1))).unwrap();

    // Arm both the fsync and the recovery rewrite so the store *stays*
    // degraded (the supervisor's recovery attempts keep failing too).
    arm(
        addr,
        "wal.fsync=return(chaos: disk gone);wal.rewrite=return(chaos: disk gone)",
    );

    // The write that hits the fault is refused 503/degraded…
    expect_api_error(
        client.put_new(&WriteRequest::new(doc(2))),
        ErrorCode::Degraded,
    );
    // …and so is every later write, with a Retry-After hint, straight
    // from the degraded check (no WAL touch).
    let body = format!("{{\"hypergraph\":{}}}", Json::Str(doc(3)));
    let refused = send(
        addr,
        &format!(
            "POST /v1/hypergraphs HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    let payload = refused.text();
    assert_eq!(refused.status, 503, "{payload}");
    assert_eq!(
        Json::parse(&payload)
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("degraded"),
        "{payload}"
    );
    assert!(
        refused.retry_after().is_some(),
        "degraded 503 must carry Retry-After: {:?}",
        refused.headers
    );

    // Reads keep answering from the last committed snapshot.
    assert_eq!(client.healthz().unwrap(), 2);
    assert_eq!(client.list(&ListQuery::new().limit(10)).unwrap().total, 2);
    assert!(client.raw_hg(a.id).unwrap().contains("r0"));
    match client
        .query(&QueryRequest::new(
            "SELECT * WHERE edges >= 1 ORDER BY id LIMIT 10",
        ))
        .unwrap()
    {
        QueryResponse::Rows(page) => assert_eq!(page.total, 2, "HBQL over the degraded store"),
        other => panic!("expected rows, got {other:?}"),
    }
    let text = client.metrics_text().unwrap();
    assert_eq!(
        metric(&text, "hyperbench_store_degraded"),
        Some(1.0),
        "gauge while degraded"
    );
    assert!(metric(&text, "hyperbench_store_degraded_total").unwrap_or(0.0) >= 1.0);

    // Clear the fault: the supervisor recovers within its retry beat.
    arm(addr, "");
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        match client.put_new(&WriteRequest::new(doc(4))) {
            Ok(r) => break r,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("store never recovered: {e}"),
        }
    };
    assert_eq!(recovered.outcome.as_str(), "created");
    let text = client.metrics_text().unwrap();
    assert_eq!(
        metric(&text, "hyperbench_store_degraded"),
        Some(0.0),
        "gauge after recovery"
    );
    assert!(metric(&text, "hyperbench_store_recoveries_total").unwrap_or(0.0) >= 1.0);

    // Nothing committed before or after the episode was lost.
    let again = client.put_new(&WriteRequest::new(doc(1))).unwrap();
    assert_eq!(again.outcome.as_str(), "exists");
    assert_eq!(again.id, b.id);
    shutdown.shutdown();
    join.join().unwrap();
}

/// A checksum fault on the pack's page reads fails exactly the
/// hydrating detail read — a structured 500 with a diagnostic — while
/// meta-only listings and HBQL queries (which never touch pack pages)
/// keep answering; clearing the fault heals the same read.
#[test]
fn checksum_fault_fails_one_read_and_spares_meta_queries() {
    let _guard = chaos_lock();
    let dir = tmpdir("checksum");
    let pack = dir.join("repo.pack");
    let mut repo = Repository::new();
    for i in 0..3 {
        repo.insert(parse_hg(&doc(i)).unwrap(), "SPARQL", "CQ Application");
    }
    hyperbench_repo::store::pack::write_pack(&repo, &pack).expect("write pack");
    let server = Server::bind(
        Repository::open_pack(&pack).expect("open pack"),
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
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));

    arm(addr, "pack.read_page=return(chaos)");
    match client.entry(0) {
        Err(ClientError::Api { status, error }) => {
            assert_eq!(status, 500, "{error}");
            assert_eq!(error.code, ErrorCode::Internal);
            assert!(
                error.message.contains("checksum"),
                "diagnostic lost: {error}"
            );
        }
        other => panic!("hydrating read must fail structurally, got {other:?}"),
    }
    // Meta-only paths never touch pack pages: still 200.
    assert_eq!(client.list(&ListQuery::new().limit(10)).unwrap().total, 3);
    match client
        .query(&QueryRequest::new("SELECT * WHERE edges = 3 LIMIT 10"))
        .unwrap()
    {
        QueryResponse::Rows(page) => assert_eq!(page.total, 3),
        other => panic!("expected rows, got {other:?}"),
    }

    // The failure was per-request, not sticky: clearing the fault lets
    // the very same entry hydrate.
    arm(addr, "");
    assert_eq!(client.entry(0).unwrap().summary.id, 0);
    shutdown.shutdown();
    join.join().unwrap();
}

/// Connection-level chaos: the reactor's read path killing connections
/// produces transport errors, and the retrying client (idempotent GETs)
/// rides through them without surfacing a failure.
#[test]
fn client_retries_ride_through_connection_chaos() {
    let _guard = chaos_lock();
    let (join, addr, shutdown) = start_writable("conn-chaos");
    let client = Client::new(addr)
        .with_timeout(Duration::from_secs(30))
        .with_retries(RetryPolicy::default());
    client.put_new(&WriteRequest::new(doc(0))).unwrap();

    // Every third read event kills its connection, twelve times over.
    arm(
        addr,
        "reactor.read=2*off->1*return->2*off->1*return->2*off->1*return",
    );
    for round in 0..12 {
        assert_eq!(
            client
                .healthz()
                .unwrap_or_else(|e| panic!("round {round}: {e}")),
            1,
            "round {round}"
        );
    }
    arm(addr, "");
    let text = client.metrics_text().unwrap();
    assert!(
        metric(&text, "hyperbench_client_retries_total").unwrap_or(0.0) >= 1.0,
        "the chaos never forced a retry — schedule too lenient"
    );
    shutdown.shutdown();
    join.join().unwrap();
}

/// Spawns the writable pack server over `dir` (optionally with a
/// `HYPERBENCH_FAILPOINTS` schedule) and parses its address off stdout.
fn spawn_server(dir: &Path, failpoints: Option<&str>) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_write_server"));
    cmd.arg(dir).stdout(Stdio::piped()).stderr(Stdio::null());
    match failpoints {
        Some(spec) => cmd.env("HYPERBENCH_FAILPOINTS", spec),
        None => cmd.env_remove("HYPERBENCH_FAILPOINTS"),
    };
    let mut child = cmd.spawn().expect("spawn write_server");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("addr line");
    let addr = line
        .strip_prefix("ADDR ")
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or_else(|| panic!("bad address line {line:?}"));
    (child, addr)
}

/// The headline chaos run: a seeded schedule arms a WAL fsync fault on
/// the Nth durable write of a real server process (armed through the
/// environment, exactly as an operator would). The retrying client
/// must land every write anyway — riding the degraded 503 through the
/// supervisor's recovery — and after a `kill -9` and restart, every
/// acknowledged write is still there (verified by content hash via
/// idempotent re-`POST`), with no duplicates.
#[test]
fn seeded_chaos_schedule_plus_kill9_loses_no_acked_write() {
    let _guard = chaos_lock();
    let mut rng = Rng::new(seed());
    let nth = rng.between(2, 6);
    let dir = tmpdir("kill9");
    let pack = dir.join("repo.pack");
    hyperbench_repo::store::pack::write_pack(&Repository::new(), &pack).expect("seed empty pack");

    // --- first life: fault on the Nth fsync, keep writing through it ---
    let schedule = format!("wal.fsync={nth}*off->1*return(chaos: seeded fsync fault)");
    eprintln!("schedule: {schedule}");
    let (mut child, addr) = spawn_server(&dir, Some(&schedule));
    let client = Client::new(addr)
        .with_timeout(Duration::from_secs(30))
        .with_retries(RetryPolicy::default());
    let mut acked = Vec::new();
    for i in 0..10 {
        let r = client
            .put_new(&WriteRequest::new(doc(i)))
            .unwrap_or_else(|e| panic!("write {i} lost to the chaos: {e}"));
        acked.push((i, r.id, r.content_hash.unwrap()));
    }
    let text = client.metrics_text().unwrap();
    assert!(
        metric(&text, "hyperbench_store_degraded_total").unwrap_or(0.0) >= 1.0,
        "the seeded fault never fired — schedule: {schedule}"
    );
    assert!(
        metric(&text, "hyperbench_store_recoveries_total").unwrap_or(0.0) >= 1.0,
        "the supervisor never recovered the store"
    );
    assert!(
        metric(&text, "hyperbench_fault_injected_total").unwrap_or(0.0) >= 1.0,
        "fault metering missing"
    );
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");

    // --- second life: clean environment, full durability audit ---
    let (mut child, addr) = spawn_server(&dir, None);
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
    assert_eq!(client.healthz().unwrap(), acked.len());
    for (i, id, hash) in &acked {
        let r = client.put_new(&WriteRequest::new(doc(*i))).unwrap();
        assert_eq!(r.outcome.as_str(), "exists", "doc {i} vanished");
        assert_eq!(r.id, *id, "doc {i} moved ids");
        assert_eq!(r.content_hash, Some(*hash), "doc {i} content changed");
    }
    child.kill().expect("stop second server");
    child.wait().expect("reap");
}

/// A full chaos lifecycle leaks no threads: after shutdown, the process
/// is back to (at most) its pre-server thread count.
#[test]
fn chaos_lifecycle_leaks_no_threads() {
    let _guard = chaos_lock();
    // The server names every thread it starts `hyperbench-…`; the rest
    // of the process is the test harness, whose threads come and go
    // with the tests queued behind the chaos lock.
    let threads = || {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc")
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|name| name.starts_with("hyperbench-"))
            })
            .count()
    };
    let baseline = threads();
    {
        let (join, addr, shutdown) = start_writable("leak");
        let client = Client::new(addr)
            .with_timeout(Duration::from_secs(30))
            .with_retries(RetryPolicy::default());
        arm(addr, "reactor.read=3*off->1*return->off");
        client.put_new(&WriteRequest::new(doc(0))).unwrap();
        for _ in 0..8 {
            let _ = client.healthz();
        }
        arm(addr, "");
        shutdown.shutdown();
        join.join().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = threads();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak: {baseline} before the server, {now} after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
