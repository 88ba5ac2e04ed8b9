//! HBQL query throughput and the no-hydration invariant.
//!
//! Two in-process variants separate the compiler from the executor:
//! `compile_cold` lexes + parses + resolves the query text every
//! iteration, `execute_cached` runs one pre-compiled plan over the
//! metadata scan — the cost a plan cache would save vs. the cost that
//! remains. Two served variants then drive a pack-backed server over
//! real sockets: `query_meta_only` answers `POST /v1/query` purely off
//! the pack's meta index, `detail_hydrating` answers
//! `GET /v1/hypergraphs/{id}`, which must hydrate pack pages. The CI
//! perf job (`BENCH_PR8.json`) asserts from the emitted telemetry that
//! the query variant's `hyperbench_pack_page_hydrations_total` delta is
//! exactly zero while the detail variant's is not — the executor's
//! meta-only contract, measured rather than promised.

use std::net::SocketAddr;
use std::path::PathBuf;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hyperbench_api::QueryRequest;
use hyperbench_bench::{benchmark_slice, connect, TelemetryBaseline};
use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

/// Keep-alive connections per served round.
const CONNS: usize = 4;
/// Requests each connection issues per round.
const REQUESTS_PER_CONN: usize = 8;

/// The row query both the compiler and the served variants run.
const ROW_QUERY: &str = "SELECT * WHERE edges >= 2 AND arity >= 2 LIMIT 50";
/// The aggregate query the served variant alternates in.
const AGG_QUERY: &str = "SELECT collection, COUNT(*), MAX(edges), AVG(arity) GROUP BY collection";

fn corpus() -> Repository {
    let mut repo = Repository::new();
    for inst in benchmark_slice(2) {
        repo.insert(inst.hypergraph, inst.collection, inst.class.name());
    }
    repo
}

/// Packs the corpus and serves it paged: entry bodies stay on disk
/// until something hydrates them, which is exactly what the telemetry
/// assertions need to observe.
fn start_packed() -> (
    std::thread::JoinHandle<()>,
    SocketAddr,
    ShutdownHandle,
    PathBuf,
    usize,
) {
    let repo = corpus();
    let entries = repo.len();
    let dir = std::env::temp_dir().join(format!(
        "hyperbench-query-throughput-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let pack = dir.join("repo.pack");
    hyperbench_repo::store::pack::write_pack(&repo, &pack).expect("write pack");
    let repo = Repository::open_pack(&pack).expect("open pack");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(repo, &config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (join, addr, shutdown, dir, entries)
}

fn query_request(query: &str) -> Vec<u8> {
    let body = QueryRequest::new(query).to_json().to_string();
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn detail_request(id: usize) -> Vec<u8> {
    format!("GET /v1/hypergraphs/{id} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One query round: `CONNS` keep-alive connections alternating the row
/// and aggregate queries.
fn query_round(addr: SocketAddr) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            handles.push(scope.spawn(move || {
                let mut conn = connect(addr);
                for i in 0..REQUESTS_PER_CONN {
                    let text = if (c + i) % 2 == 0 {
                        ROW_QUERY
                    } else {
                        AGG_QUERY
                    };
                    let response = conn.exchange(&query_request(text)).expect("exchange");
                    let status = response.status;
                    assert_eq!(status, 200, "query failed: {}", response.text());
                }
                REQUESTS_PER_CONN
            }));
        }
        handles.into_iter().map(|h| h.join().expect("conn")).sum()
    })
}

/// One detail round: the same connection count fetching full entries,
/// which hydrates pack pages.
fn detail_round(addr: SocketAddr, entries: usize) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            handles.push(scope.spawn(move || {
                let mut conn = connect(addr);
                for i in 0..REQUESTS_PER_CONN {
                    let id = (c * REQUESTS_PER_CONN + i) % entries;
                    let response = conn.exchange(&detail_request(id)).expect("exchange");
                    let status = response.status;
                    assert_eq!(status, 200);
                }
                REQUESTS_PER_CONN
            }));
        }
        handles.into_iter().map(|h| h.join().expect("conn")).sum()
    })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_throughput");
    g.sample_size(10);
    let mut telemetry = TelemetryBaseline::capture(&["hyperbench_query_", "hyperbench_pack_"]);

    // Compiler cost, paid per request today: lex + parse + resolve.
    g.bench_function("compile_cold", |b| {
        b.iter(|| black_box(hyperbench_query::compile(black_box(ROW_QUERY)).unwrap()))
    });
    telemetry.emit("query_throughput/compile_cold");

    // Executor cost with the plan already compiled — what a plan cache
    // would leave. Runs over an in-memory corpus scan.
    let repo = corpus();
    let plan = hyperbench_query::compile(ROW_QUERY).unwrap();
    g.bench_function("execute_cached", |b| {
        b.iter(|| black_box(plan.execute_rows(repo.metas(), None, 50)))
    });
    telemetry.emit("query_throughput/execute_cached");

    // Served variants over a pack: queries must stay on the meta index,
    // details must not.
    let (join, addr, shutdown, dir, entries) = start_packed();
    g.bench_function("query_meta_only", |b| {
        b.iter(|| black_box(query_round(addr)))
    });
    telemetry.emit("query_throughput/query_meta_only");

    g.bench_function("detail_hydrating", |b| {
        b.iter(|| black_box(detail_round(addr, entries)))
    });
    telemetry.emit("query_throughput/detail_hydrating");

    shutdown.shutdown();
    join.join().expect("server");
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
