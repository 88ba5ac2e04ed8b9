//! Shared helpers for the cross-crate integration tests.
pub mod strategies;

use std::sync::{Mutex, MutexGuard};

static CHAOS: Mutex<()> = Mutex::new(());

/// The failpoint registry is process-global: two tests arming the same
/// point would stomp each other's schedules, and one counting faults or
/// threads would count its neighbour's. Every chaos test holds this
/// lock for its whole run.
pub fn chaos_lock() -> MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Raw-socket HTTP for the suites that assert on statuses, headers and
/// exact request bytes the typed `Client` would hide. Responses are
/// decoded by the one shared reader, `hyperbench_api::http`.
pub mod http {
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    use hyperbench_api::http::{Response, ResponseReader};

    /// Opens a connection with 30 s socket timeouts.
    pub fn connect(addr: SocketAddr) -> ResponseReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect");
        let timeout = Some(Duration::from_secs(30));
        stream.set_read_timeout(timeout).expect("read timeout");
        stream.set_write_timeout(timeout).expect("write timeout");
        ResponseReader::new(stream)
    }

    /// Sends `raw` verbatim on a fresh connection and reads one
    /// response.
    pub fn send(addr: SocketAddr, raw: &str) -> Response {
        connect(addr)
            .exchange(raw.as_bytes())
            .unwrap_or_else(|e| panic!("no response to {raw:?}: {e}"))
    }

    /// `GET path` on a fresh connection: (status, body).
    pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let r = send(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        );
        (r.status, r.text())
    }

    /// One metric's value off the Prometheus exposition at `addr`
    /// (0 when the name is not listed).
    pub fn metric(addr: SocketAddr, name: &str) -> f64 {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200, "{body}");
        body.lines()
            .find_map(|line| {
                let mut parts = line.split_whitespace();
                (parts.next() == Some(name))
                    .then(|| parts.next())??
                    .parse()
                    .ok()
            })
            .unwrap_or(0.0)
    }

    /// `POST path` with `body` on a fresh connection: (status, body).
    pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        let r = send(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        (r.status, r.text())
    }
}

/// Servers, documents and scratch space the suites share — among them
/// the corpus `api_v1.rs`, `query_api.rs` and `server_http.rs` assert
/// against, so they agree on every total.
pub mod fixture {
    use std::net::SocketAddr;
    use std::path::PathBuf;
    use std::thread::JoinHandle;

    use hyperbench_api::{ClientError, ErrorCode};
    use hyperbench_core::builder::hypergraph_from_edges;
    use hyperbench_repo::{analyze_instance, AnalysisConfig, Repository};
    use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

    /// A distinct, deterministic triangle document per index.
    pub fn doc(i: usize) -> String {
        format!("r{i}(a{i},b{i}),s{i}(b{i},c{i}),t{i}(c{i},a{i}).")
    }

    /// A fresh, empty scratch directory unique to `tag` and this
    /// process.
    pub fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hyperbench-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    /// Asserts that a client call failed with the given structured
    /// error code (and its HTTP status).
    pub fn expect_api_error(result: Result<impl std::fmt::Debug, ClientError>, code: ErrorCode) {
        match result {
            Err(ClientError::Api { error, status }) => {
                assert_eq!(error.code, code, "unexpected code (HTTP {status}): {error}");
                assert_eq!(status, code.http_status());
            }
            other => panic!("expected {code:?} ApiError, got {other:?}"),
        }
    }

    /// Posts two depth bombs — 20 000 × `[` and 20 000 nested `{"a":` —
    /// to every route that reads a JSON body and asserts each answers a
    /// structured 400 naming the nesting limit, on a server (or a router
    /// in front of servers) that is still alive afterwards: the JSON
    /// parser recursed as deep as the body said before it was capped,
    /// and the first of these aborted the process.
    pub fn assert_depth_bombs_are_refused(addr: SocketAddr) {
        use hyperbench_api::Json;
        for bomb in ["[".repeat(20_000), "{\"a\":".repeat(20_000)] {
            for route in ["/v1/query", "/v1/hypergraphs", "/v1/analyses"] {
                let (status, body) = crate::http::post(addr, route, &bomb);
                let what = format!("POST {route} with {:?}…: {body}", &bomb[..5]);
                assert_eq!(status, 400, "{what}");
                let error = Json::parse(&body).unwrap_or_else(|e| panic!("{e}; {what}"));
                assert_eq!(
                    error.get("code").and_then(Json::as_str),
                    Some("bad_request"),
                    "{what}"
                );
                assert!(body.contains("nesting deeper than 128 levels"), "{what}");
            }
        }
        let (status, body) = crate::http::get(addr, "/v1/healthz");
        assert_eq!(status, 200, "the process must survive the bombs: {body}");
    }

    /// A WAL-backed writable server over an empty repository, on an
    /// ephemeral port (`tag` names its scratch directory).
    pub fn start_writable(tag: &str) -> (JoinHandle<()>, SocketAddr, ShutdownHandle) {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            analysis_workers: 1,
            job_queue_capacity: 16,
            cache_capacity: 32,
            wal: Some(tmpdir(tag).join("repo.wal")),
            ..ServerConfig::default()
        };
        let server = Server::bind(Repository::new(), &config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        (join, addr, shutdown)
    }

    /// A read-only server on an ephemeral port over a deterministic
    /// 12-entry repository: 8 analyzed CQ entries (alternating
    /// SPARQL/TPC-H collections, triangles and paths) plus 4 unanalyzed
    /// CSP entries.
    pub fn start_server() -> (JoinHandle<()>, SocketAddr, ShutdownHandle) {
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
        let server = Server::bind(
            repo,
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 6,
                analysis_workers: 2,
                job_queue_capacity: 16,
                cache_capacity: 32,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        (join, addr, shutdown)
    }
}
