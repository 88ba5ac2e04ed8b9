//! End-to-end test of the versioned `/v1` API over a real TCP socket,
//! driven through the native `hyperbench_api::Client`: keyset cursor
//! paging, typed analysis submission (hd/ghd/fhd), decomposition
//! retrieval with client-side re-validation via `decomp::validate`, and
//! structured error codes.

use std::time::Duration;

use hyperbench_api::{
    AnalysisStatus, AnalyzeMethod, AnalyzeRequest, Client, ErrorCode, Json, ListQuery,
};
use hyperbench_core::format::parse_hg;
use hyperbench_decomp::validate::{validate_ghd, validate_hd};
use hyperbench_integration_tests::fixture::{expect_api_error, start_server};
use hyperbench_integration_tests::http::{self, post};

const WAIT: Duration = Duration::from_secs(30);

#[test]
fn cursor_paging_walks_the_repository_exactly_once() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);
    assert_eq!(client.healthz().unwrap(), 12);

    // Page through everything with limit 5: 5 + 5 + 2.
    let mut q = ListQuery::new().limit(5);
    let mut ids = Vec::new();
    let mut pages = 0;
    loop {
        let page = client.list(&q).unwrap();
        assert_eq!(page.total, 12);
        pages += 1;
        ids.extend(page.items.iter().map(|i| i.id));
        match page.next_cursor {
            Some(c) => q.cursor = Some(c),
            None => break,
        }
    }
    assert_eq!(pages, 3);
    assert_eq!(ids, (0..12).collect::<Vec<_>>(), "each id exactly once");

    // Filtered keyset paging: SPARQL entries are ids 0,2,4,6.
    let page = client
        .list(&ListQuery::new().limit(3).filter("collection", "SPARQL"))
        .unwrap();
    assert_eq!(page.total, 4);
    assert_eq!(
        page.items.iter().map(|i| i.id).collect::<Vec<_>>(),
        vec![0, 2, 4]
    );
    let rest = client
        .list(&ListQuery {
            limit: Some(3),
            cursor: page.next_cursor.clone(),
            filters: vec![("collection".to_string(), "SPARQL".to_string())],
        })
        .unwrap();
    assert_eq!(rest.items.iter().map(|i| i.id).collect::<Vec<_>>(), vec![6]);
    assert_eq!(rest.next_cursor, None);

    // list_all stitches the pages back together.
    let all = client.list_all(&ListQuery::new().limit(4)).unwrap();
    assert_eq!(all.items.len(), 12);

    // Unanalyzed entries carry null bounds but every field is present.
    let csp = &all.items[8];
    assert!(!csp.analyzed);
    assert_eq!(csp.hw_upper, None);
    assert_eq!(csp.hw_lower, None);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn structured_errors_have_stable_codes() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    // limit=0 and non-numeric limits: invalid_param, never clamped.
    expect_api_error(
        client.list(&ListQuery::new().limit(0)),
        ErrorCode::InvalidParam,
    );
    expect_api_error(
        client.list(&ListQuery::new().filter("limit", "banana")),
        ErrorCode::InvalidParam,
    );
    expect_api_error(
        client.list(&ListQuery::new().limit(100_000)),
        ErrorCode::InvalidParam,
    );
    // /v1 pages by cursor; offset is not a parameter here.
    expect_api_error(
        client.list(&ListQuery::new().filter("offset", "2")),
        ErrorCode::InvalidParam,
    );
    // Bad cursors are invalid_cursor, not a silent first page.
    expect_api_error(
        client.list(&ListQuery {
            cursor: Some("deadbeef".to_string()),
            ..ListQuery::new()
        }),
        ErrorCode::InvalidCursor,
    );
    // Unknown filters and bad filter values.
    expect_api_error(
        client.list(&ListQuery::new().filter("frobnicate", "1")),
        ErrorCode::InvalidParam,
    );
    // Missing resources.
    expect_api_error(client.entry(999), ErrorCode::NotFound);
    expect_api_error(client.analysis(999), ErrorCode::NotFound);
    // Degenerate analysis overrides are rejected, not silently repaired.
    let mut degenerate = AnalyzeRequest::hd("e(a,b).");
    degenerate.max_width = Some(0);
    expect_api_error(client.submit(&degenerate), ErrorCode::InvalidParam);
    let mut degenerate = AnalyzeRequest::hd("e(a,b).");
    degenerate.timeout_ms = Some(0);
    expect_api_error(client.submit(&degenerate), ErrorCode::InvalidParam);
    expect_api_error(
        client.submit(&AnalyzeRequest::hd("e(a,b).").with_jobs(0)),
        ErrorCode::InvalidParam,
    );

    shutdown.shutdown();
    join.join().unwrap();
}

/// The `jobs` override: a parallel analysis request answers with the
/// same widths as the default serial one (the engine's determinism
/// guarantee), and the server clamps the knob rather than rejecting
/// over-asks. (The test server runs with the default ceiling of 1, so
/// this also covers the clamp-to-serial path.)
#[test]
fn jobs_override_is_clamped_and_answers_identically() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    let doc = "r(a,b),s(b,c),t(c,a),u(c,d),v(d,e).";
    let serial = client.analyze(&AnalyzeRequest::hd(doc), WAIT).unwrap();
    let parallel = client
        .analyze(&AnalyzeRequest::hd(doc).with_jobs(64), WAIT)
        .unwrap();
    let s = serial.result.as_ref().expect("serial report");
    let p = parallel.result.as_ref().expect("parallel report");
    assert_eq!(s.hw_exact, p.hw_exact, "jobs must not change the answer");
    assert_eq!(s.hw_upper, p.hw_upper);
    assert_eq!(s.hw_lower, p.hw_lower);

    shutdown.shutdown();
    join.join().unwrap();
}

/// The satellite-task round-trip: a known-acyclic and a known-hw-2
/// hypergraph through `POST /v1/analyses`, with the returned tree
/// re-validated client-side via `crates/decomp/src/validate.rs` after a
/// full DTO decode.
#[test]
fn decompositions_roundtrip_and_revalidate_client_side() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    // --- known-acyclic: hw = 1, witness must pass validate_hd ---
    let acyclic_doc = "e1(a,b),e2(b,c),e3(c,d).";
    let done = client
        .analyze(&AnalyzeRequest::hd(acyclic_doc), WAIT)
        .unwrap();
    assert_eq!(done.status, AnalysisStatus::Done);
    let report = done.result.as_ref().unwrap();
    assert_eq!(report.hw_exact, Some(1));
    let dto = done.decomposition.as_ref().expect("acyclic witness");
    assert_eq!(dto.width, 1);
    assert_eq!(dto.validation, "valid-hd");
    // Client-side re-check: decode the DTO into a real tree over the
    // submitted hypergraph and run the §3.2 validator locally.
    let h = parse_hg(acyclic_doc).unwrap();
    let tree = dto.to_decomposition(&h).unwrap();
    assert_eq!(tree.width(), 1);
    validate_hd(&h, &tree).expect("client-side HD validation");

    // --- known-hw-2 (triangle + covering 3-ary edge trick keeps hw=1;
    // use the plain triangle, hw = 2) ---
    let tri_doc = "r(a,b),s(b,c),t(c,a).";
    let done = client.analyze(&AnalyzeRequest::hd(tri_doc), WAIT).unwrap();
    let report = done.result.as_ref().unwrap();
    assert_eq!(report.hw_exact, Some(2));
    let dto = done.decomposition.as_ref().expect("hw-2 witness");
    assert_eq!(dto.width, 2);
    assert_eq!(dto.validation, "valid-hd");
    let h = parse_hg(tri_doc).unwrap();
    let tree = dto.to_decomposition(&h).unwrap();
    assert_eq!(tree.width(), 2);
    validate_hd(&h, &tree).expect("client-side HD validation");

    // --- ghd on the triangle: a GHD witness of width 2 ---
    let done = client
        .analyze(
            &AnalyzeRequest::hd(tri_doc).with_method(AnalyzeMethod::Ghd),
            WAIT,
        )
        .unwrap();
    assert_eq!(done.method, Some(AnalyzeMethod::Ghd));
    let dto = done.decomposition.as_ref().expect("ghd witness");
    assert_eq!(dto.validation, "valid-ghd");
    let tree = dto.to_decomposition(&h).unwrap();
    assert!(tree.width() <= 2);
    validate_ghd(&h, &tree).expect("client-side GHD validation");

    // --- fhd: HD witness plus a fractional width upper bound ---
    let done = client
        .analyze(
            &AnalyzeRequest::hd(tri_doc).with_method(AnalyzeMethod::Fhd),
            WAIT,
        )
        .unwrap();
    let dto = done.decomposition.as_ref().expect("fhd witness");
    assert!(
        dto.fractional_width.is_some(),
        "fhd must report a fractional width"
    );
    validate_ghd(&h, &dto.to_decomposition(&h).unwrap()).unwrap();

    // Different methods are distinct cache identities: resubmitting hd
    // now is a cache hit, but the ghd/fhd runs never polluted it.
    let hit = client.analyze(&AnalyzeRequest::hd(tri_doc), WAIT).unwrap();
    assert_eq!(hit.cached, Some(true));
    assert_eq!(
        hit.decomposition.as_ref().unwrap().method,
        AnalyzeMethod::Hd
    );

    shutdown.shutdown();
    join.join().unwrap();
}

/// One document as ghd → hd → fhd: each answer is a fresh analysis
/// (`cached: false`, the result cache missed), but hd and fhd start from
/// what the methods before them proved. Counts are read from this
/// server's `/v1/stats` (its own cache and job counters); the
/// process-wide `/metrics` counter is shared with the other tests in
/// this binary, so only its lower bound is exact here.
#[test]
fn methods_share_what_another_method_proved() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);
    // K5 as a graph: hw = ghw = 3.
    let doc = "e01(k0,k1),e02(k0,k2),e03(k0,k3),e04(k0,k4),e12(k1,k2),\n\
               e13(k1,k3),e14(k1,k4),e23(k2,k3),e24(k2,k4),e34(k3,k4).";
    let h = parse_hg(doc).unwrap();
    let counts = || {
        let s = client.stats().unwrap();
        (s.cache.hits, s.cache.misses, s.jobs.facts_reused)
    };
    let global_before = http::metric(addr, "hyperbench_jobs_facts_reused_total");
    let before = counts();

    let mut cold = Vec::new();
    for method in [AnalyzeMethod::Ghd, AnalyzeMethod::Hd, AnalyzeMethod::Fhd] {
        let request = AnalyzeRequest::hd(doc).with_method(method);
        let done = client.analyze(&request, WAIT).unwrap();
        assert_eq!(done.status, AnalysisStatus::Done, "{method:?}");
        assert_eq!(done.cached, Some(false), "{method:?}: a fresh analysis");
        let report = done.result.as_ref().unwrap();
        assert_eq!(report.hw_exact, Some(3), "{method:?}");
        assert!(!report.hw_timed_out);
        let dto = done.decomposition.as_ref().expect("witness");
        let tree = dto.to_decomposition(&h).unwrap();
        assert!(tree.width() <= 3);
        // The server checks hd witnesses as HDs, ghd and fhd ones as
        // GHDs; fhd's is the stored HD, so it passes both.
        let verdict = match method {
            AnalyzeMethod::Hd => "valid-hd",
            AnalyzeMethod::Ghd | AnalyzeMethod::Fhd => "valid-ghd",
        };
        assert_eq!(dto.validation, verdict, "{method:?}");
        validate_ghd(&h, &tree).unwrap();
        if method != AnalyzeMethod::Ghd {
            validate_hd(&h, &tree).unwrap();
        }
        assert_eq!(dto.fractional_width.is_some(), method == AnalyzeMethod::Fhd);
        cold.push((request, done));
    }
    let after = counts();
    assert_eq!(after.0 - before.0, 0, "no result-cache hit");
    assert_eq!(after.1 - before.1, 3, "three result-cache misses");
    assert_eq!(after.2 - before.2, 2, "hd and fhd started from facts");
    let global_after = http::metric(addr, "hyperbench_jobs_facts_reused_total");
    assert!(global_after - global_before >= 2.0);

    // Replays come from the result cache, byte for byte.
    for (request, first) in &cold {
        let again = client.analyze(request, WAIT).unwrap();
        assert_eq!(again.cached, Some(true));
        let json = |r: &hyperbench_api::AnalysisResource| {
            (
                r.result.as_ref().map(|x| x.to_json().to_string()),
                r.decomposition.as_ref().map(|x| x.to_json().to_string()),
            )
        };
        assert_eq!(json(&again), json(first));
    }
    let replayed = counts();
    assert_eq!((replayed.0 - after.0, replayed.1 - after.1), (3, 0));

    // The same text reformatted (CRLF, indentation) under other options
    // misses the result cache but reuses the facts: the widths are known.
    let variant = doc.replace('\n', "\r\n   ");
    let mut request = AnalyzeRequest::hd(variant.as_str());
    request.max_width = Some(7);
    let done = client.analyze(&request, WAIT).unwrap();
    assert_eq!(done.cached, Some(false));
    assert_eq!(done.result.as_ref().unwrap().hw_exact, Some(3));
    let dto = done.decomposition.as_ref().unwrap();
    assert_eq!(dto.validation, "valid-hd");
    validate_hd(&h, &dto.to_decomposition(&h).unwrap()).unwrap();
    let last = counts();
    assert_eq!((last.1 - replayed.1, last.2 - replayed.2), (1, 1));

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn parse_failures_are_pollable_failed_resources() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    // Submitting garbage answers 400 — but as an AnalysisResource with
    // a pollable id.
    let failed = client
        .submit(&AnalyzeRequest::hd("this is not hg((("))
        .expect("failed submissions still decode as resources");
    assert_eq!(failed.status, AnalysisStatus::Failed);
    assert!(failed.error.as_deref().unwrap().contains("parse error"));
    // The id stays pollable after the fact.
    let polled = client.analysis(failed.id).unwrap();
    assert_eq!(polled.status, AnalysisStatus::Failed);
    assert!(polled.error.as_deref().unwrap().contains("parse error"));
    // A structurally-invalid AnalyzeRequest (unknown method) is a
    // plain structured 400, no job id burned.
    let (status, body) = post(
        addr,
        "/v1/analyses",
        r#"{"hypergraph":"e(a,b).","method":"magic"}"#,
    );
    assert_eq!(status, 400, "got: {body}");
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(
        parsed.get("code").and_then(Json::as_str),
        Some("invalid_param"),
        "body: {parsed}"
    );

    shutdown.shutdown();
    join.join().unwrap();
}
