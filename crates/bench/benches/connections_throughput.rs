//! Serving-path throughput: N concurrent keep-alive clients issuing
//! repository reads against the epoll reactor.
//!
//! The reactor runs **2 event loops** serving **64 concurrent
//! keep-alive connections** — the CI perf job tracks the absolute
//! round latency so serving-path regressions surface in the bench
//! history. `CRITERION_SHIM_JOBS` is set to the event-loop count, so
//! the emitted JSON lines are self-describing.
//!
//! Serving-path telemetry (request counters, reactor wakeups, write
//! bytes, latency summaries) rides along as a `<variant>/telemetry`
//! JSON line, and the bench scrapes `/metrics` over the wire the way
//! an operator's Prometheus would.

use std::net::SocketAddr;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hyperbench_bench::{connect, TelemetryBaseline};
use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

/// Concurrent client connections (the issue's acceptance point).
const CLIENTS: usize = 64;
/// Requests each client issues per measured round.
const REQUESTS_PER_CLIENT: usize = 8;
/// Reactor event loops.
const REACTOR_THREADS: usize = 2;

fn repo() -> Repository {
    let mut repo = Repository::new();
    for i in 0..16 {
        let a = format!("a{i}");
        let b = format!("b{i}");
        let c = format!("c{i}");
        repo.insert(
            hypergraph_from_edges(&[
                ("R", &[a.as_str(), b.as_str()]),
                ("S", &[b.as_str(), c.as_str()]),
                ("T", &[c.as_str(), a.as_str()]),
            ]),
            if i % 2 == 0 { "SPARQL" } else { "TPC-H" },
            "CQ Application",
        );
    }
    repo
}

fn start() -> (std::thread::JoinHandle<()>, SocketAddr, ShutdownHandle) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(repo(), &config)
        .expect("bind ephemeral port")
        .with_reactor_threads(REACTOR_THREADS);
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (join, addr, shutdown)
}

const REQUEST_KEEP_ALIVE: &[u8] = b"GET /v1/hypergraphs/3 HTTP/1.1\r\nHost: bench\r\n\r\n";

/// One measured round: `CLIENTS` threads, each holding a keep-alive
/// connection and issuing `REQUESTS_PER_CLIENT` reads.
fn round(addr: SocketAddr) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            handles.push(scope.spawn(move || {
                let mut conn = connect(addr);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let response = conn.exchange(REQUEST_KEEP_ALIVE).expect("exchange");
                    assert_eq!(response.status, 200, "{}", response.text());
                    // Nothing is pipelined, so nothing may trail the
                    // framed response.
                    assert!(conn.is_drained(), "unexpected trailing bytes");
                }
                REQUESTS_PER_CLIENT
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    })
}

/// Scrapes `GET /metrics` from the live server over the wire — the same
/// endpoint an operator's Prometheus would hit — and sanity-checks that
/// the exposition carries the serving-path counters the bench just
/// drove.
fn scrape_metrics(addr: SocketAddr) {
    let scrape = connect(addr)
        .exchange(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("scrape");
    let text = scrape.text();
    assert_eq!(scrape.status, 200, "scrape failed: {text}");
    assert!(
        text.contains("hyperbench_http_requests_total")
            && text.contains("hyperbench_http_handle_us_count"),
        "exposition is missing serving-path metrics:\n{text}"
    );
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("connections_throughput");
    g.sample_size(8);
    let mut telemetry = TelemetryBaseline::capture(&[
        "hyperbench_http_",
        "hyperbench_reactor_",
        "hyperbench_jobs_",
    ]);

    let (join, addr, shutdown) = start();
    std::env::set_var("CRITERION_SHIM_JOBS", REACTOR_THREADS.to_string());
    g.bench_function("reactor", |b| b.iter(|| black_box(round(addr))));
    scrape_metrics(addr);
    telemetry.emit("connections_throughput/reactor");
    shutdown.shutdown();
    join.join().expect("reactor server");

    std::env::remove_var("CRITERION_SHIM_JOBS");
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
