//! End-to-end telemetry test over a real TCP socket: a pack-backed
//! server is driven through a known request mix (GETs, a cache
//! miss + hit POST pair, one 413, one 408) and then `/v1/stats` and
//! `/metrics` must report exactly that mix, with non-empty latency
//! histograms for every instrumented subsystem.
//!
//! The metrics registry is process-global, so this binary holds exactly
//! one `#[test]` — a sibling test recording into the same counters
//! would break the exact assertions.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hyperbench_api::AnalyzeRequest;
use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_integration_tests::http::{get, post, send};
use hyperbench_repo::{analyze_instance, AnalysisConfig, Repository};
use hyperbench_server::json::Json;
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

/// Read deadline the server is configured with; the 408 probe waits a
/// little longer than this.
const READ_DEADLINE: Duration = Duration::from_millis(400);

fn start_pack_server() -> (std::thread::JoinHandle<()>, SocketAddr, ShutdownHandle) {
    let mut repo = Repository::new();
    let cfg = AnalysisConfig::default();
    for i in 0..4 {
        let h = if i % 2 == 0 {
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
        } else {
            hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])])
        };
        let rec = analyze_instance(&h, &cfg);
        let id = repo.insert(h, "SPARQL", "CQ Application");
        repo.set_analysis(id, rec);
    }
    let dir = std::env::temp_dir().join(format!("hyperbench-metrics-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let pack = dir.join("repo.pack");
    hyperbench_repo::store::pack::write_pack(&repo, &pack).expect("write pack");
    let repo = Repository::open_pack(&pack).expect("open pack");

    let server = Server::bind(
        repo,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            analysis_workers: 1,
            job_queue_capacity: 16,
            cache_capacity: 32,
            analysis: AnalysisConfig::default(),
            spill: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .with_read_deadline(READ_DEADLINE);
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (join, addr, shutdown)
}

fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// Extracts the value of a `name value` line from Prometheus text.
fn prom_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

/// Fetches a counter out of the stats payload's telemetry section.
fn stat_counter(stats: &Json, name: &str) -> i64 {
    stats
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("counter {name} missing from /v1/stats"))
}

/// Finds a histogram summary by name in the stats payload.
fn stat_histogram<'a>(stats: &'a Json, name: &str) -> &'a Json {
    stats
        .get("telemetry")
        .and_then(|t| t.get("histograms"))
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("histogram {name} missing from /v1/stats"))
}

#[test]
fn metrics_reflect_a_known_request_mix() {
    let (join, addr, shutdown) = start_pack_server();
    // Every request we expect the router to dispatch. Parse failures
    // (the 413 and 408 probes) never reach the router and must not be
    // tallied.
    let mut dispatched: i64 = 0;

    // --- N GETs: health, two listings, three pack-hydrating details ---
    assert_eq!(get(addr, "/v1/healthz").0, 200);
    dispatched += 1;
    for _ in 0..2 {
        let (status, body) = get(addr, "/v1/hypergraphs");
        assert_eq!(status, 200, "{body}");
        dispatched += 1;
    }
    for id in 0..3 {
        let (status, body) = get(addr, &format!("/v1/hypergraphs/{id}"));
        assert_eq!(status, 200, "{body}");
        dispatched += 1;
    }

    // --- M POSTs: one analysis (cache miss), the same doc again (hit) ---
    let doc = AnalyzeRequest::hd("q1(u,v),q2(v,w),q3(w,u).")
        .to_json()
        .to_string();
    let (status, body) = post(addr, "/v1/analyses", &doc);
    assert!(status == 200 || status == 202, "{status}: {body}");
    dispatched += 1;
    let job_id = json(&body).get("id").and_then(Json::as_int).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = get(addr, &format!("/v1/analyses/{job_id}"));
        assert_eq!(status, 200, "{body}");
        dispatched += 1;
        match json(&body).get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => {
                assert_eq!(other, Some("done"), "{body}");
                break;
            }
        }
    }
    let (status, body) = post(addr, "/v1/analyses", &doc);
    assert_eq!(status, 200, "cache hit answers synchronously: {body}");
    assert_eq!(
        json(&body).get("cached").and_then(Json::as_bool),
        Some(true)
    );
    dispatched += 1;

    // --- one 413: an honest Content-Length beyond the body cap ---
    let oversized = send(
        addr,
        "POST /v1/analyses HTTP/1.1\r\nHost: test\r\nContent-Length: 9000000\r\n\r\n",
    );
    assert_eq!(oversized.status, 413);

    // --- one 408: a partial request past the read deadline ---
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(b"GET /v1/st").expect("partial request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read 408");
        assert!(
            response.starts_with("HTTP/1.1 408"),
            "expected 408, got {response:?}"
        );
    }

    // --- /v1/stats reports exactly that mix ---
    let (status, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200, "{body}");
    dispatched += 1; // the stats request counts itself
    let stats = json(&body);

    assert_eq!(
        stat_counter(&stats, "hyperbench_http_requests_total"),
        dispatched,
        "dispatched-request counter"
    );
    assert_eq!(
        stat_counter(&stats, "hyperbench_http_responses_408_total"),
        1
    );
    assert_eq!(
        stat_counter(&stats, "hyperbench_http_responses_413_total"),
        1
    );

    // Cache section: exactly one miss (first POST) and one hit (second).
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").and_then(Json::as_int), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_int), Some(1));
    assert_eq!(cache.get("evictions").and_then(Json::as_int), Some(0));
    assert_eq!(cache.get("spill_appends").and_then(Json::as_int), Some(0));

    // Latency histograms: every instrumented family has recorded.
    for name in [
        "hyperbench_http_handle_us",
        "hyperbench_http_parse_us",
        "hyperbench_http_serialize_us",
        "hyperbench_jobs_queue_wait_us",
        "hyperbench_jobs_decompose_us",
    ] {
        let h = stat_histogram(&stats, name);
        assert!(
            h.get("count").and_then(Json::as_int).unwrap() > 0,
            "{name} recorded nothing"
        );
    }
    // The decomposition ran a width search; pack details were hydrated.
    let width = stat_histogram(&stats, "hyperbench_decomp_width_found");
    assert!(width.get("count").and_then(Json::as_int).unwrap() >= 1);
    assert!(stat_counter(&stats, "hyperbench_pack_page_hydrations_total") >= 1);
    assert!(stat_counter(&stats, "hyperbench_pack_checksum_reads_total") >= 1);
    assert!(stat_counter(&stats, "hyperbench_pack_entries_parsed_total") >= 1);

    // The reactor is the only IO engine; its family always records.
    assert!(stat_counter(&stats, "hyperbench_reactor_conns_accepted_total") >= 1);
    assert!(stat_counter(&stats, "hyperbench_reactor_epoll_wakeups_total") >= 1);
    assert!(stat_counter(&stats, "hyperbench_reactor_write_bytes_total") >= 1);

    // The repository and jobs sections sit next to the telemetry one.
    let repo = stats.get("repository").expect("repository section");
    assert_eq!(repo.get("entries").and_then(Json::as_int), Some(4));
    let jobs = stats.get("jobs").expect("jobs section");
    assert!(jobs.get("done").and_then(Json::as_int).unwrap() >= 1);

    // --- /metrics agrees, in Prometheus text format ---
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    dispatched += 1; // the scrape counts itself
    assert_eq!(
        prom_value(&text, "hyperbench_http_requests_total"),
        Some(dispatched as u64),
        "scrape disagrees with stats:\n{text}"
    );
    assert_eq!(
        prom_value(&text, "hyperbench_http_responses_408_total"),
        Some(1)
    );
    assert_eq!(
        prom_value(&text, "hyperbench_cache_hits_total"),
        Some(1),
        "cache hits in prometheus text"
    );
    // One document under one method: no job had facts to start from.
    assert_eq!(
        prom_value(&text, "hyperbench_jobs_facts_reused_total"),
        Some(0)
    );
    // Histogram series render cumulative buckets plus _sum/_count.
    assert!(text.contains("# TYPE hyperbench_http_handle_us histogram"));
    assert!(text.contains("hyperbench_http_handle_us_bucket{le=\"+Inf\"}"));
    assert!(prom_value(&text, "hyperbench_http_handle_us_count").unwrap() > 0);
    assert!(prom_value(&text, "hyperbench_jobs_decompose_us_count").unwrap() > 0);
    assert!(prom_value(&text, "hyperbench_decomp_width_found_count").unwrap() >= 1);

    shutdown.shutdown();
    join.join().unwrap();
}
