//! Live-socket tests of the epoll reactor path specifically: HTTP/1.1
//! keep-alive and pipelining, byte-by-byte (drip-fed) request delivery,
//! slowloris/oversize abuse answered with structured 408/413 instead of
//! a pinned thread, concurrent keep-alive connections far beyond the
//! event-loop thread count, and the POST offload + self-pipe wake path.
//!
//! The reactor exists only on Linux; elsewhere this suite is empty.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hyperbench_api::http::ResponseReader;
use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_integration_tests::http::{connect, get};
use hyperbench_repo::{AnalysisConfig, Repository};
use hyperbench_server::json::Json;
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

/// A reactor server over a 3-entry repository: 2 event loops, a short
/// read deadline so the slowloris test stays fast, and a generous idle
/// timeout so deliberate pauses between keep-alive requests survive.
fn start_reactor(
    read_deadline: Duration,
) -> (std::thread::JoinHandle<()>, SocketAddr, ShutdownHandle) {
    let mut repo = Repository::new();
    repo.insert(
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]),
        "SPARQL",
        "CQ Application",
    );
    repo.insert(
        hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]),
        "TPC-H",
        "CQ Application",
    );
    repo.insert(
        hypergraph_from_edges(&[("c", &["x", "y"])]),
        "xcsp",
        "CSP Random",
    );
    let server = Server::bind(
        repo,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            analysis_workers: 2,
            job_queue_capacity: 16,
            cache_capacity: 32,
            analysis: AnalysisConfig::default(),
            spill: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .with_reactor_threads(2)
    .with_read_deadline(read_deadline)
    .with_idle_timeout(Duration::from_secs(20));
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (join, addr, shutdown)
}

/// One request and its response on a kept-open connection, leaving the
/// connection positioned at the next response: (status, body).
fn exchange(conn: &mut ResponseReader<TcpStream>, request: &str) -> (u16, String) {
    let response = conn.exchange(request.as_bytes()).expect("response");
    (response.status, response.text())
}

fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// The drip-feed regression from the issue: a pipelined pair of
/// keep-alive requests written one byte at a time across many `EPOLLIN`
/// wakeups must produce byte-identical responses to the same bytes
/// delivered in a single write.
#[test]
fn drip_fed_pipelined_requests_match_one_shot() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    // Two deterministic endpoints (no uptime counters in the payload):
    // the first keeps the connection alive, the second closes it.
    let raw = "GET /v1/hypergraphs/0 HTTP/1.1\r\nHost: t\r\n\r\n\
               GET /v1/hypergraphs/0/hg HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";

    let one_shot = {
        let mut conn = connect(addr);
        let stream = conn.get_mut();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read one-shot");
        out
    };
    assert!(one_shot.starts_with("HTTP/1.1 200 OK"), "got: {one_shot}");
    assert_eq!(
        one_shot.matches("HTTP/1.1 200 OK").count(),
        2,
        "both pipelined responses arrive: {one_shot}"
    );
    assert!(one_shot.contains("Connection: keep-alive"), "{one_shot}");
    assert!(one_shot.contains("Connection: close"), "{one_shot}");

    let dripped = {
        let mut conn = connect(addr);
        let stream = conn.get_mut();
        for chunk in raw.as_bytes() {
            stream.write_all(std::slice::from_ref(chunk)).unwrap();
            stream.flush().unwrap();
            // A real pause every few bytes guarantees many separate
            // EPOLLIN wakeups without making the test crawl.
            std::thread::sleep(Duration::from_micros(300));
        }
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read dripped");
        out
    };
    assert_eq!(one_shot, dripped, "drip-fed responses must be identical");

    shutdown.shutdown();
    join.join().unwrap();
}

/// Sequential keep-alive requests on one connection, with deliberate
/// pauses, all answered without reconnecting.
#[test]
fn keep_alive_serves_sequential_requests() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    let mut conn = connect(addr);
    for round in 0..5 {
        let (status, body) = exchange(
            &mut conn,
            "GET /v1/hypergraphs/1 HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 200, "round {round}: {body}");
        let detail = json(&body);
        assert_eq!(
            detail.get("id").and_then(Json::as_int),
            Some(1),
            "round {round}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // An error response on a keep-alive connection still answers
    // structured JSON, then the server closes the connection.
    let (status, body) = exchange(
        &mut conn,
        "GET /v1/hypergraphs/999 HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status, 404, "{body}");
    assert_eq!(
        json(&body).get("code").and_then(Json::as_str),
        Some("not_found")
    );
    shutdown.shutdown();
    join.join().unwrap();
}

/// Slowloris: a client that delivers its request one byte per eternity
/// is answered a structured 408 and disconnected within the read
/// deadline — while other clients stay fully served, because no thread
/// is pinned.
#[test]
fn slowloris_gets_structured_408_and_starves_nobody() {
    let (join, addr, shutdown) = start_reactor(Duration::from_millis(400));
    let mut slow = connect(addr);
    let slow = slow.get_mut();
    slow.write_all(b"GET /v1/hyperg").unwrap(); // partial request line, then silence

    // While the slow client squats, normal clients are unaffected.
    for _ in 0..4 {
        let (status, _) = get(addr, "/v1/hypergraphs/0");
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut answer = String::new();
    slow.read_to_string(&mut answer).expect("read 408");
    assert!(
        answer.starts_with("HTTP/1.1 408"),
        "slowloris answer: {answer:?}"
    );
    assert!(answer.contains("request_timeout"), "{answer}");
    assert!(answer.contains("Connection: close"), "{answer}");
    shutdown.shutdown();
    join.join().unwrap();
}

/// Oversized request heads are answered a structured 413 instead of
/// being buffered without bound.
#[test]
fn oversized_head_gets_structured_413() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    let mut conn = connect(addr);
    let stream = conn.get_mut();
    let huge = format!(
        "GET /v1/healthz HTTP/1.1\r\nX-Flood: {}\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    // The server may cut the connection mid-write; that is fine too.
    let _ = stream.write_all(huge.as_bytes());
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("read 413");
    assert!(
        answer.starts_with("HTTP/1.1 413"),
        "oversized head answer: {answer:?}"
    );
    assert!(answer.contains("payload_too_large"), "{answer}");
    shutdown.shutdown();
    join.join().unwrap();
}

/// 64 simultaneous keep-alive connections on 2 event-loop threads: every
/// connection stays open across rounds and every request is answered —
/// connection capacity is no longer bounded by thread count.
#[test]
fn sixty_four_keepalive_connections_on_two_threads() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    let mut conns: Vec<_> = (0..64).map(|_| connect(addr)).collect();
    for round in 0..3 {
        // Fire all 64 requests before reading any answer, so they are
        // genuinely concurrent in the server.
        for conn in conns.iter_mut() {
            conn.get_mut()
                .write_all(b"GET /v1/hypergraphs/0 HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let response = conn.read_response().expect("response");
            assert_eq!(response.status, 200, "round {round}, conn {i}");
        }
    }
    drop(conns);
    shutdown.shutdown();
    join.join().unwrap();
}

/// The offload path end-to-end over one keep-alive connection: a POST
/// (handled on the worker pool, response delivered through the self-pipe
/// wake) followed by polls on the same connection until the analysis
/// lands.
#[test]
fn post_analyses_offload_completes_over_keep_alive() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    let mut conn = connect(addr);
    let body = r#"{"hypergraph":"q1(u,v),q2(v,w),q3(w,u).","method":"hd"}"#;
    let (status, answer) = exchange(
        &mut conn,
        &format!(
            "POST /v1/analyses HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(status == 200 || status == 202, "{status}: {answer}");
    let id = json(&answer).get("id").and_then(Json::as_int).expect("id");

    let deadline = Instant::now() + Duration::from_secs(30);
    let report = loop {
        let (status, answer) = exchange(
            &mut conn,
            &format!("GET /v1/analyses/{id} HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        assert_eq!(status, 200, "poll: {answer}");
        let resource = json(&answer);
        match resource.get("status").and_then(Json::as_str) {
            Some("done") => break resource,
            Some("queued") | Some("running") => {
                assert!(Instant::now() < deadline, "analysis never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected status {other:?}: {answer}"),
        }
    };
    assert_eq!(
        report
            .get("result")
            .and_then(|r| r.get("hw_exact"))
            .and_then(Json::as_int),
        Some(2),
        "triangle has hypertree width 2"
    );
    shutdown.shutdown();
    join.join().unwrap();
}

/// HTTP/1.0 requests (no keep-alive by default) close per request.
#[test]
fn http10_closes_after_response() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    let mut conn = connect(addr);
    let stream = conn.get_mut();
    stream
        .write_all(b"GET /v1/hypergraphs/0 HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read http/1.0");
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");
    shutdown.shutdown();
    join.join().unwrap();
}

/// An already-expired propagated deadline (`x-hyperbench-deadline-ms: 0`
/// on a write) is answered a structured 408 *before* the handler runs —
/// the offload worker checks the budget at dispatch time. A generous
/// budget passes through to the normal handler outcome.
#[test]
fn expired_propagated_deadline_is_answered_408_before_dispatch() {
    let (join, addr, shutdown) = start_reactor(Duration::from_secs(10));
    let body = r#"{"hypergraph":"p(a,b)."}"#;

    let mut conn = connect(addr);
    let (status, answer) = exchange(
        &mut conn,
        &format!(
            "POST /v1/hypergraphs HTTP/1.1\r\nHost: t\r\n\
             x-hyperbench-deadline-ms: 0\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 408, "{answer}");
    assert_eq!(
        json(&answer).get("code").and_then(Json::as_str),
        Some("request_timeout"),
        "{answer}"
    );

    // Same request with a generous budget reaches the handler; this
    // server is read-only, so the write path answers its normal 403.
    let (status, answer) = exchange(
        &mut conn,
        &format!(
            "POST /v1/hypergraphs HTTP/1.1\r\nHost: t\r\n\
             x-hyperbench-deadline-ms: 60000\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 403, "{answer}");
    assert_eq!(
        json(&answer).get("code").and_then(Json::as_str),
        Some("read_only"),
        "{answer}"
    );
    shutdown.shutdown();
    join.join().unwrap();
}
