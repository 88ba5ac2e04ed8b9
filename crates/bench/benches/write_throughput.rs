//! Write-path throughput and read isolation under write load.
//!
//! A writable WAL-backed server takes datagen instances over keep-alive
//! `POST /v1/hypergraphs` connections — every request is a distinct
//! document, so each round measures real commits (WAL append + fsync),
//! not idempotent hits. Around the write variant sit two read variants
//! over the identical request: `reads_baseline` on a quiet server and
//! `reads_under_writes` with background writers hammering commits the
//! whole round. The CI perf job (`BENCH_PR7.json`) asserts the
//! under-writes reads stay within the same latency band the PR-5/PR-6
//! trajectory demanded of the reactor — snapshot-isolated reads must
//! not stall behind the write path.
//!
//! Telemetry (`hyperbench_wal_*`, `hyperbench_mvcc_*`, serving-path
//! counters) rides along per variant as `<variant>/telemetry` lines.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hyperbench_api::WriteRequest;
use hyperbench_bench::{benchmark_slice, connect, TelemetryBaseline};
use hyperbench_core::format::to_hg_unnamed;
use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

/// Keep-alive writer connections per measured round.
const WRITERS: usize = 4;
/// Documents each writer commits per round.
const WRITES_PER_CONN: usize = 8;
/// Keep-alive reader connections per measured round.
const READERS: usize = 8;
/// Requests each reader issues per round.
const READS_PER_CONN: usize = 8;
/// Background writer threads during `reads_under_writes`.
const BACKGROUND_WRITERS: usize = 2;
/// Read-latency samples per tail-latency phase (quiet and overloaded).
const P99_SAMPLES: usize = 400;
/// Analysis-spam threads saturating the job queue in the overload phase.
const ANALYSIS_SPAMMERS: usize = 2;

/// Monotonic document counter: rounds repeat, content must not.
static NEXT_DOC: AtomicUsize = AtomicUsize::new(0);

fn start() -> (
    std::thread::JoinHandle<()>,
    SocketAddr,
    ShutdownHandle,
    PathBuf,
) {
    // Seed with a small read corpus so the read variants have entries
    // to page before any write lands.
    let mut repo = Repository::new();
    for inst in benchmark_slice(1) {
        repo.insert(inst.hypergraph, inst.collection, inst.class.name());
    }
    let dir = std::env::temp_dir().join(format!(
        "hyperbench-write-throughput-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        wal: Some(dir.join("repo.wal")),
        // A deliberately small analysis pool: the overload phase must be
        // able to saturate it and measure the shed rate, not grind
        // through an effectively unbounded queue.
        analysis_workers: 1,
        job_queue_capacity: 8,
        ..ServerConfig::default()
    };
    let server = Server::bind(repo, &config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (join, addr, shutdown, dir)
}

/// Datagen-shaped documents, made unique by a per-document vertex
/// prefix so every `POST` is a fresh commit rather than a dedup hit.
fn unique_docs(n: usize) -> Vec<String> {
    let base: Vec<String> = benchmark_slice(1)
        .into_iter()
        .map(|inst| to_hg_unnamed(&inst.hypergraph))
        .collect();
    (0..n)
        .map(|_| {
            let i = NEXT_DOC.fetch_add(1, Ordering::Relaxed);
            let text = &base[i % base.len()];
            // Renaming every vertex keeps the shape, changes the
            // content hash. The commas between edges sit at line ends
            // (`),\n`); shield them so only vertex commas get the
            // prefix.
            text.replace("),\n", ")\x01\n")
                .replace("(", &format!("(u{i}x"))
                .replace(",", &format!(",u{i}x"))
                .replace(")\x01\n", "),\n")
        })
        .collect()
}

fn post_request(doc: &str) -> Vec<u8> {
    let body = WriteRequest::new(doc).to_json().to_string();
    format!(
        "POST /v1/hypergraphs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const READ_REQUEST: &[u8] = b"GET /v1/hypergraphs/3 HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Measures `n` sequential keep-alive reads, returning each latency in
/// nanoseconds.
fn read_latencies(addr: SocketAddr, n: usize) -> Vec<u64> {
    let mut conn = connect(addr);
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = std::time::Instant::now();
        let response = conn.exchange(READ_REQUEST).expect("exchange");
        let status = response.status;
        samples.push(t.elapsed().as_nanos() as u64);
        assert_eq!(status, 200, "reads must keep answering");
    }
    samples
}

/// p99 over raw nanosecond samples.
fn p99(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[(samples.len() * 99) / 100 - 1]
}

fn analyze_request(doc: &str) -> Vec<u8> {
    let body = format!(
        "{{\"hypergraph\":{}}}",
        hyperbench_server::json::Json::Str(doc.to_string())
    );
    format!(
        "POST /v1/analyses HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Appends one custom JSON line to the `CRITERION_SHIM_JSON` feed (the
/// same file the shim's timing lines and the telemetry deltas go to).
/// Missing or unwritable feeds never panic, matching the shim.
fn emit_line(line: &str) {
    let Ok(path) = std::env::var("CRITERION_SHIM_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write as _;
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = result {
        eprintln!("bench emit: cannot append to {path}: {e}");
    }
}

/// One write round: `WRITERS` keep-alive connections, each committing
/// `WRITES_PER_CONN` fresh documents.
fn write_round(addr: SocketAddr) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(WRITERS);
        for _ in 0..WRITERS {
            let docs = unique_docs(WRITES_PER_CONN);
            handles.push(scope.spawn(move || {
                let mut conn = connect(addr);
                for doc in &docs {
                    let response = conn.exchange(&post_request(doc)).expect("exchange");
                    let status = response.status;
                    assert_eq!(
                        status,
                        201,
                        "fresh content must commit: {}",
                        response.text()
                    );
                }
                docs.len()
            }));
        }
        handles.into_iter().map(|h| h.join().expect("writer")).sum()
    })
}

/// One read round: `READERS` keep-alive connections paging a detail.
fn read_round(addr: SocketAddr) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(READERS);
        for _ in 0..READERS {
            handles.push(scope.spawn(move || {
                let mut conn = connect(addr);
                for _ in 0..READS_PER_CONN {
                    let response = conn.exchange(READ_REQUEST).expect("exchange");
                    let status = response.status;
                    assert_eq!(status, 200);
                }
                READS_PER_CONN
            }));
        }
        handles.into_iter().map(|h| h.join().expect("reader")).sum()
    })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_throughput");
    g.sample_size(8);
    let mut telemetry =
        TelemetryBaseline::capture(&["hyperbench_http_", "hyperbench_wal_", "hyperbench_mvcc_"]);

    let (join, addr, shutdown, dir) = start();

    // Reads on a quiet server: the baseline the under-writes variant is
    // held to.
    g.bench_function("reads_baseline", |b| b.iter(|| black_box(read_round(addr))));
    telemetry.emit("write_throughput/reads_baseline");

    // Pure write throughput: every request a durable commit.
    g.bench_function("post_keep_alive", |b| {
        b.iter(|| black_box(write_round(addr)))
    });
    telemetry.emit("write_throughput/post_keep_alive");

    // Reads while background writers keep committing: snapshot reads
    // must not queue behind WAL fsyncs.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..BACKGROUND_WRITERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                while !stop.load(Ordering::Relaxed) {
                    for doc in unique_docs(4) {
                        let response = conn.exchange(&post_request(&doc)).expect("exchange");
                        let status = response.status;
                        assert_eq!(status, 201);
                    }
                }
            })
        })
        .collect();
    g.bench_function("reads_under_writes", |b| {
        b.iter(|| black_box(read_round(addr)))
    });
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("background writer");
    }
    telemetry.emit("write_throughput/reads_under_writes");

    // --- read tail latency: quiet baseline vs saturating load with ---
    // --- shedding, the BENCH_PR9 resilience bar ---
    //
    // The overload phase runs background writers (durable commits) plus
    // analysis spammers that saturate the deliberately small job queue,
    // so admission control and the queue bound shed aggressively (429 /
    // 503 + Retry-After) while inline reads keep being measured. The
    // contract: shedding keeps the read p99 within a small multiple of
    // the quiet baseline instead of letting the backlog eat it.
    let quiet_p99_ns = p99(&mut read_latencies(addr, P99_SAMPLES));

    let stop = Arc::new(AtomicBool::new(false));
    let attempts = Arc::new(AtomicUsize::new(0));
    let sheds = Arc::new(AtomicUsize::new(0));
    let mut load = Vec::new();
    for _ in 0..BACKGROUND_WRITERS {
        let stop = Arc::clone(&stop);
        load.push(std::thread::spawn(move || {
            let mut conn = connect(addr);
            while !stop.load(Ordering::Relaxed) {
                for doc in unique_docs(4) {
                    let response = conn.exchange(&post_request(&doc)).expect("exchange");
                    let status = response.status;
                    assert_eq!(status, 201);
                }
            }
        }));
    }
    for _ in 0..ANALYSIS_SPAMMERS {
        let stop = Arc::clone(&stop);
        let attempts = Arc::clone(&attempts);
        let sheds = Arc::clone(&sheds);
        load.push(std::thread::spawn(move || {
            let mut conn = connect(addr);
            while !stop.load(Ordering::Relaxed) {
                for doc in unique_docs(4) {
                    let response = conn.exchange(&analyze_request(&doc)).expect("exchange");
                    let status = response.status;
                    attempts.fetch_add(1, Ordering::Relaxed);
                    match status {
                        200 | 202 => {}
                        429 | 503 => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!(
                            "overload must shed structurally, got {other}: {}",
                            response.text()
                        ),
                    }
                }
            }
        }));
    }
    let overload_p99_ns = p99(&mut read_latencies(addr, P99_SAMPLES));
    stop.store(true, Ordering::Relaxed);
    for t in load {
        t.join().expect("load thread");
    }
    let (attempts, sheds) = (
        attempts.load(Ordering::Relaxed),
        sheds.load(Ordering::Relaxed),
    );
    let shed_rate = sheds as f64 / attempts.max(1) as f64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "write_throughput/read_tail_latency       quiet_p99={quiet_p99_ns}ns \
         overload_p99={overload_p99_ns}ns shed={sheds}/{attempts} ({shed_rate:.3})"
    );
    emit_line(&format!(
        "{{\"bench\":\"write_throughput/read_tail_latency\",\"quiet_p99_ns\":{quiet_p99_ns},\
         \"overload_p99_ns\":{overload_p99_ns},\"shed\":{sheds},\"attempts\":{attempts},\
         \"shed_rate\":{shed_rate:.4},\"threads\":{threads}}}"
    ));
    telemetry.emit("write_throughput/read_tail_latency");

    shutdown.shutdown();
    join.join().expect("server");
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
