//! End-to-end test of `hyperbench-server` over raw TCP sockets: an
//! ephemeral-port server on a small generated repository, exercised for
//! what the typed client hides — percent-encoded filter params, exact
//! statuses for 404/405/400 and a malformed request line, analysis
//! submission + polling with a whitespace-insensitive cache hit,
//! `/v1/stats`, the retired unversioned paths, JSON depth bombs, and ≥4
//! truly concurrent clients.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hyperbench_api::AnalyzeRequest;
use hyperbench_integration_tests::fixture::{
    assert_depth_bombs_are_refused, start_server, start_writable,
};
use hyperbench_integration_tests::http::{get, post, send};
use hyperbench_server::json::Json;

fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// `POST /v1/analyses` with the server-default options.
fn submit(addr: SocketAddr, doc: &str) -> (u16, String) {
    post(
        addr,
        "/v1/analyses",
        &AnalyzeRequest::hd(doc).to_json().to_string(),
    )
}

/// Polls `GET /v1/analyses/{id}` until it leaves queued/running.
fn wait_analysis(addr: SocketAddr, id: i64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = get(addr, &format!("/v1/analyses/{id}"));
        assert_eq!(status, 200, "poll failed: {body}");
        let j = json(&body);
        match j.get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {
                assert!(Instant::now() < deadline, "analysis {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => return j,
        }
    }
}

#[test]
fn full_http_surface() {
    let (join, addr, shutdown) = start_server();

    // --- /v1/healthz ---
    let (status, body) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    let health = json(&body);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("entries").and_then(Json::as_int), Some(12));

    // --- a first page: limit, true total, a continuation cursor ---
    let (status, body) = get(addr, "/v1/hypergraphs?limit=3");
    assert_eq!(status, 200);
    let page = json(&body);
    assert_eq!(page.get("total").and_then(Json::as_int), Some(12));
    let items = page.get("items").and_then(Json::as_arr).unwrap();
    assert_eq!(items.len(), 3);
    assert_eq!(items[2].get("id").and_then(Json::as_int), Some(2));
    assert!(page.get("next_cursor").and_then(Json::as_str).is_some());

    // --- filter params (percent-encoded class, analysis bounds) ---
    let filtered = json(&get(addr, "/v1/hypergraphs?class=CQ%20Application&hw_le=1").1);
    assert_eq!(filtered.get("total").and_then(Json::as_int), Some(4));
    for item in filtered.get("items").and_then(Json::as_arr).unwrap() {
        assert_eq!(item.get("hw_upper").and_then(Json::as_int), Some(1));
        assert_eq!(
            item.get("collection").and_then(Json::as_str),
            Some("TPC-H"),
            "paths were inserted under TPC-H"
        );
    }
    let cyclic = json(&get(addr, "/v1/hypergraphs?cyclic=true&collection=SPARQL").1);
    assert_eq!(cyclic.get("total").and_then(Json::as_int), Some(4));
    // Unanalyzed entries match plain filters but not analysis filters.
    let csp = json(&get(addr, "/v1/hypergraphs?class=CSP%20Random").1);
    assert_eq!(csp.get("total").and_then(Json::as_int), Some(4));
    let csp_hw = json(&get(addr, "/v1/hypergraphs?class=CSP%20Random&hw_le=9").1);
    assert_eq!(csp_hw.get("total").and_then(Json::as_int), Some(0));

    // --- detail + raw .hg ---
    let (status, body) = get(addr, "/v1/hypergraphs/0");
    assert_eq!(status, 200);
    let detail = json(&body);
    assert_eq!(detail.get("vertices").and_then(Json::as_int), Some(3));
    let analysis = detail.get("analysis").unwrap();
    assert_eq!(analysis.get("hw_exact").and_then(Json::as_int), Some(2));
    assert_eq!(
        detail
            .get("edge_list")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3)
    );
    let (status, raw) = get(addr, "/v1/hypergraphs/0/hg");
    assert_eq!(status, 200);
    assert!(raw.contains("R(a,b)"), "raw hg was: {raw}");

    // --- 404s, each a structured error ---
    for missing in ["/v1/hypergraphs/999", "/v1/analyses/999", "/nope"] {
        let (status, body) = get(addr, missing);
        assert_eq!(status, 404, "GET {missing}: {body}");
        assert_eq!(
            json(&body).get("code").and_then(Json::as_str),
            Some("not_found"),
            "GET {missing}: {body}"
        );
    }
    // The unversioned PR-1 data routes are retired: every one of their
    // paths is now just another unknown path.
    for retired in [
        "/hypergraphs",
        "/hypergraphs/0",
        "/hypergraphs/0/hg",
        "/jobs/1",
        "/stats",
        "/healthz",
    ] {
        let (status, body) = get(addr, retired);
        assert_eq!(status, 404, "GET {retired}: {body}");
        assert_eq!(
            json(&body).get("code").and_then(Json::as_str),
            Some("not_found"),
            "GET {retired}: {body}"
        );
    }
    assert_eq!(post(addr, "/analyze", "e(a,b).").0, 404);

    // --- 400s: structured, with stable codes; nothing is clamped or
    // defaulted (offset is not a parameter of the keyset contract) ---
    for bad in [
        "/v1/hypergraphs?hw_le=banana",
        "/v1/hypergraphs?frobnicate=1",
        "/v1/hypergraphs?limit=0",
        "/v1/hypergraphs?limit=nope",
        "/v1/hypergraphs?limit=999999",
        "/v1/hypergraphs?offset=2",
        "/v1/hypergraphs/notanumber",
    ] {
        let (status, body) = get(addr, bad);
        assert_eq!(status, 400, "GET {bad}: {body}");
        let err = json(&body);
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("invalid_param"),
            "GET {bad}: {body}"
        );
        assert!(err.get("error").is_some(), "GET {bad}: {body}");
    }
    assert_eq!(submit(addr, "this is not an hg file(((").0, 400);
    assert_eq!(post(addr, "/v1/analyses", "").0, 400);
    // Wrong method → 405.
    let (status, body) = post(addr, "/v1/stats", "x");
    assert_eq!(status, 405, "{body}");
    assert_eq!(
        json(&body).get("code").and_then(Json::as_str),
        Some("method_not_allowed")
    );
    // Malformed request line → 400.
    assert_eq!(send(addr, "BOGUS\r\n\r\n").status, 400);

    // --- POST /v1/analyses → poll → cache hit on resubmission ---
    let doc = "q1(u,v),q2(v,w),q3(w,u),q4(u,v,w).";
    let (status, body) = submit(addr, doc);
    assert!(
        status == 200 || status == 202,
        "unexpected {status}: {body}"
    );
    let id = json(&body).get("id").and_then(Json::as_int).unwrap();
    let finished = wait_analysis(addr, id);
    assert_eq!(finished.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(finished.get("cached").and_then(Json::as_bool), Some(false));
    let result = finished.get("result").unwrap();
    assert_eq!(result.get("hw_exact").and_then(Json::as_int), Some(1));

    // Resubmitting the same document (modulo whitespace) must be a cache
    // hit, answered synchronously.
    let (status, body) = submit(addr, &format!("  {doc}\r\n"));
    assert_eq!(status, 200, "cache hit should answer immediately: {body}");
    let hit = json(&body);
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("status").and_then(Json::as_str), Some("done"));

    // --- /v1/stats reflects all of the above ---
    let stats = json(&get(addr, "/v1/stats").1);
    let repo = stats.get("repository").unwrap();
    assert_eq!(repo.get("entries").and_then(Json::as_int), Some(12));
    assert_eq!(repo.get("analyzed").and_then(Json::as_int), Some(8));
    let by_class = repo.get("by_class").unwrap();
    assert_eq!(
        by_class.get("CQ Application").and_then(Json::as_int),
        Some(8)
    );
    let cache = stats.get("cache").unwrap();
    assert!(cache.get("hits").and_then(Json::as_int).unwrap() >= 1);
    let jobs = stats.get("jobs").unwrap();
    assert!(jobs.get("done").and_then(Json::as_int).unwrap() >= 2);
    assert!(jobs.get("failed").and_then(Json::as_int).unwrap() >= 1);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn depth_bombs_answer_400_and_the_server_lives() {
    let (join, addr, shutdown) = start_writable("depth-bombs");
    assert_depth_bombs_are_refused(addr);
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_get_correct_filtered_json() {
    let (join, addr, shutdown) = start_server();

    // 8 simultaneous clients (> the issue's ≥4), each hammering a
    // different query whose answer is known, all racing POSTs below.
    let scenarios: Vec<(&str, i64)> = vec![
        ("/v1/hypergraphs?collection=SPARQL", 4),
        ("/v1/hypergraphs?collection=TPC-H", 4),
        ("/v1/hypergraphs?class=CSP%20Random", 4),
        ("/v1/hypergraphs?hw_le=1", 4),
        ("/v1/hypergraphs?cyclic=true", 4),
        ("/v1/hypergraphs?min_edges=3", 4),
        ("/v1/hypergraphs", 12),
        ("/v1/hypergraphs?analyzed=true", 8),
    ];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (path, expected_total) in &scenarios {
            handles.push(scope.spawn(move || {
                for _ in 0..20 {
                    let (status, body) = get(addr, path);
                    assert_eq!(status, 200, "GET {path}: {body}");
                    let page = json(&body);
                    assert_eq!(
                        page.get("total").and_then(Json::as_int),
                        Some(*expected_total),
                        "GET {path} returned wrong total: {body}"
                    );
                }
            }));
        }
        // One extra client keeps the analysis pool busy while the readers
        // run, proving reads are not serialized behind analyses.
        handles.push(scope.spawn(move || {
            for i in 0..4 {
                let doc = format!("e1(a{i},b{i}),e2(b{i},c{i}),e3(c{i},a{i}).");
                let (status, body) = submit(addr, &doc);
                assert!(status == 200 || status == 202, "{status}: {body}");
                let id = json(&body).get("id").and_then(Json::as_int).unwrap();
                let done = wait_analysis(addr, id);
                assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
            }
        }));
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    shutdown.shutdown();
    join.join().unwrap();
}
