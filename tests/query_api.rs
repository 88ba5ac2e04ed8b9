//! End-to-end test of `POST /v1/query` over a real TCP socket: HBQL
//! row queries with keyset paging and `ORDER BY`, aggregation with
//! `GROUP BY`, 422 `invalid_query` rejections carrying byte-offset
//! spans, snapshot-pinned cursors holding steady under concurrent
//! writes, and the unknown-filter-key rejection of the list route's
//! `?key=value` params, which desugar through the same planner.

use std::net::SocketAddr;

use hyperbench_api::{
    Client, ClientError, ErrorCode, Json, ListQuery, QueryRequest, QueryResponse, WriteRequest,
};
use hyperbench_integration_tests::fixture::{start_server, start_writable};
use hyperbench_integration_tests::http::{get, post};

fn rows(response: QueryResponse) -> hyperbench_api::PageDto {
    match response {
        QueryResponse::Rows(page) => page,
        other => panic!("expected a rows page, got {other:?}"),
    }
}

/// `POST /v1/query` over a raw socket: (status, parsed JSON body) — for
/// what the typed client flattens away (error spans).
fn post_query_raw(addr: SocketAddr, query: &str) -> (u16, Json) {
    let body = QueryRequest::new(query).to_json().to_string();
    let (status, answer) = post(addr, "/v1/query", &body);
    (status, Json::parse(&answer).expect("JSON body"))
}

#[test]
fn hbql_rows_filter_order_and_page() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    // Filter on an index field: the 8 CQ entries.
    let page = rows(
        client
            .query(&QueryRequest::new(
                "SELECT * WHERE class = \"CQ Application\"",
            ))
            .unwrap(),
    );
    assert_eq!(page.total, 8);
    assert_eq!(page.items.len(), 8);
    assert!(page.items.iter().all(|s| s.class == "CQ Application"));

    // Analysis-dependent predicates exclude unanalyzed entries, exactly
    // like the legacy filters.
    let page = rows(
        client
            .query(&QueryRequest::new(
                "SELECT * WHERE analyzed = TRUE AND hw_upper <= 1",
            ))
            .unwrap(),
    );
    assert!(page.items.iter().all(|s| s.analyzed));
    assert!(page.items.iter().all(|s| s.hw_upper == Some(1)));

    // ORDER BY ... DESC with LIMIT: the triangles (3 edges) sort before
    // the paths (2) before the singletons (1); ties break by id.
    let page = rows(
        client
            .query(&QueryRequest::new("SELECT * ORDER BY edges DESC LIMIT 5"))
            .unwrap(),
    );
    assert_eq!(page.total, 12);
    assert_eq!(
        page.items.iter().map(|s| s.id).collect::<Vec<_>>(),
        vec![0, 2, 4, 6, 1]
    );
    assert!(
        page.next_cursor.is_none(),
        "ORDER BY pages are not cursorable"
    );

    // LIMIT-driven keyset paging visits each matching id exactly once,
    // in id order, and agrees with the legacy list route.
    let mut request = QueryRequest::new("SELECT * WHERE collection = \"SPARQL\" LIMIT 3");
    let mut ids = Vec::new();
    loop {
        let page = rows(client.query(&request).unwrap());
        assert_eq!(page.total, 4);
        ids.extend(page.items.iter().map(|s| s.id));
        match page.next_cursor {
            Some(c) => request.cursor = Some(c),
            None => break,
        }
    }
    assert_eq!(ids, vec![0, 2, 4, 6]);
    let legacy = client
        .list(&ListQuery::new().filter("collection", "SPARQL"))
        .unwrap();
    assert_eq!(
        legacy.items.iter().map(|s| s.id).collect::<Vec<_>>(),
        ids,
        "HBQL and the desugared filter params agree"
    );

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn hbql_aggregates_group_and_count() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    let (group_by, groups) = match client
        .query(&QueryRequest::new(
            "SELECT collection, COUNT(*), MIN(edges), MAX(edges), AVG(arity) GROUP BY collection",
        ))
        .unwrap()
    {
        QueryResponse::Groups { group_by, groups } => (group_by, groups),
        other => panic!("expected groups, got {other:?}"),
    };
    assert_eq!(group_by.as_deref(), Some("collection"));
    // Ascending key order: SPARQL (4 triangles), TPC-H (4 paths),
    // xcsp (4 singleton edges).
    let summary: Vec<(String, i64, i64, i64, String)> = groups
        .iter()
        .map(|g| {
            (
                g.get("collection").and_then(Json::as_str).unwrap().into(),
                g.get("count").and_then(Json::as_int).unwrap(),
                g.get("min_edges").and_then(Json::as_int).unwrap(),
                g.get("max_edges").and_then(Json::as_int).unwrap(),
                g.get("avg_arity").and_then(Json::as_str).unwrap().into(),
            )
        })
        .collect();
    assert_eq!(
        summary,
        vec![
            ("SPARQL".into(), 4, 3, 3, "2.000".into()),
            ("TPC-H".into(), 4, 2, 2, "2.000".into()),
            ("xcsp".into(), 4, 1, 1, "2.000".into()),
        ]
    );

    // The global group: no GROUP BY, one row, no key column.
    match client
        .query(&QueryRequest::new("SELECT COUNT(*) WHERE edges >= 3"))
        .unwrap()
    {
        QueryResponse::Groups { group_by, groups } => {
            assert_eq!(group_by, None);
            assert_eq!(groups.len(), 1);
            assert_eq!(groups[0].get("count").and_then(Json::as_int), Some(4));
        }
        other => panic!("expected groups, got {other:?}"),
    }

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn invalid_queries_answer_422_with_byte_spans() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    // The typed client surfaces the stable code…
    match client.query(&QueryRequest::new("SELECT * WHERE hw <= 5")) {
        Err(ClientError::Api { error, status }) => {
            assert_eq!(status, 422);
            assert_eq!(error.code, ErrorCode::InvalidQuery);
            assert!(
                error.message.contains("hw_upper"),
                "lists the valid fields: {}",
                error.message
            );
        }
        other => panic!("expected invalid_query, got {other:?}"),
    }

    // …and the raw payload carries the byte-offset span. The unknown
    // field `hw` sits at bytes 15..17 of the query text.
    let (status, body) = post_query_raw(addr, "SELECT * WHERE hw <= 5");
    assert_eq!(status, 422);
    assert_eq!(
        body.get("code").and_then(Json::as_str),
        Some("invalid_query")
    );
    assert!(
        body.get("request_id").and_then(Json::as_int).is_some(),
        "the 422 carries its request's trace id like every error payload: {body}"
    );
    let span = body.get("span").expect("span object");
    assert_eq!(span.get("start").and_then(Json::as_int), Some(15));
    assert_eq!(span.get("end").and_then(Json::as_int), Some(17));

    // A type error points at the literal, not the field.
    let (status, body) = post_query_raw(addr, "SELECT * WHERE edges = \"three\"");
    assert_eq!(status, 422);
    let span = body.get("span").expect("span object");
    assert_eq!(span.get("start").and_then(Json::as_int), Some(23));
    assert_eq!(span.get("end").and_then(Json::as_int), Some(30));

    // Lex and parse failures use the same shape — a depth bomb among
    // them (10⁴ parentheses or NOTs overflowed a worker's stack and
    // took the server down before the parser capped its nesting).
    let parens = format!("SELECT * WHERE {}edges = 1", "(".repeat(10_000));
    let nots = format!("SELECT * WHERE {}edges = 1", "NOT ".repeat(10_000));
    for bad in [
        "SELECT * WHERE",
        "SELECT * WHERE edges ~ 3",
        "LIMIT 5",
        &parens,
        &nots,
    ] {
        let (status, body) = post_query_raw(addr, bad);
        let bad = &bad[..bad.len().min(40)];
        assert_eq!(status, 422, "query {bad:?}");
        assert!(body.get("span").is_some(), "query {bad:?} carries a span");
    }

    // Pagination mistakes are parameter errors, not query errors.
    let mut request = QueryRequest::new("SELECT * ORDER BY edges");
    request.cursor = Some("AAAA.BBBB".to_string());
    match client.query(&request) {
        Err(ClientError::Api { error, .. }) => {
            assert_eq!(error.code, ErrorCode::InvalidParam);
        }
        other => panic!("expected invalid_param, got {other:?}"),
    }

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn query_cursors_pin_their_snapshot_under_writes() {
    let (join, addr, shutdown) = start_writable("pinning");
    let client = Client::new(addr);
    for i in 0..6 {
        client
            .put_new(&WriteRequest::new(format!(
                "r{i}(a{i},b{i}),s{i}(b{i},c{i})."
            )))
            .unwrap();
    }

    // Page 1 pins the 6-entry generation.
    let mut request = QueryRequest::new("SELECT * LIMIT 4");
    let page1 = rows(client.query(&request).unwrap());
    assert_eq!(page1.total, 6);
    let cursor = page1.next_cursor.expect("more pages");

    // Writes land between the page fetches.
    for i in 6..9 {
        client
            .put_new(&WriteRequest::new(format!(
                "r{i}(a{i},b{i}),s{i}(b{i},c{i})."
            )))
            .unwrap();
    }

    // Page 2 still sees the pinned world: the same total, and none of
    // the entries committed after the cursor was minted.
    request.cursor = Some(cursor);
    let page2 = rows(client.query(&request).unwrap());
    assert_eq!(page2.total, 6, "pinned snapshot ignores later commits");
    assert_eq!(
        page2.items.iter().map(|s| s.id).collect::<Vec<_>>(),
        vec![4, 5]
    );
    assert!(page2.next_cursor.is_none());

    // A fresh query sees all 9.
    let fresh = rows(client.query(&QueryRequest::new("SELECT *")).unwrap());
    assert_eq!(fresh.total, 9);

    shutdown.shutdown();
    join.join().unwrap();
}

/// The list route's `?key=value` filter params desugar into HBQL, so an
/// unknown key is rejected by the one planner: the answer names the bad
/// key and lists the valid vocabulary. (The unversioned list route that
/// once shared this path is retired; `server_http.rs` pins its 404.)
#[test]
fn both_legacy_param_routes_reject_unknown_keys_identically() {
    let (join, addr, shutdown) = start_server();

    let (status, body) = get(addr, "/v1/hypergraphs?hw_max=3");
    assert_eq!(status, 400);
    let body = Json::parse(&body).expect("JSON body");
    assert_eq!(
        body.get("code").and_then(Json::as_str),
        Some("invalid_param")
    );
    assert!(
        body.get("request_id").is_some(),
        "the rejection carries its request's trace id"
    );
    let message = body.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("hw_max"), "names the key: {message}");
    assert!(
        message.contains("hw_le") && message.contains("collection"),
        "lists the vocabulary: {message}"
    );

    // Bad values answer 400 too.
    assert_eq!(get(addr, "/v1/hypergraphs?min_edges=many").0, 400);

    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn query_stats_section_counts_queries() {
    let (join, addr, shutdown) = start_server();
    let client = Client::new(addr);

    let before = client.stats().unwrap().query;
    let _ = rows(client.query(&QueryRequest::new("SELECT *")).unwrap());
    let _ = client.query(&QueryRequest::new("SELECT * WHERE nope = 1"));
    let after = client.stats().unwrap().query;

    assert!(after.queries >= before.queries + 2, "both compiles counted");
    assert!(after.errors > before.errors, "the rejection counted");
    assert!(
        after.rows_scanned >= before.rows_scanned + 12,
        "the full scan counted"
    );
    assert_eq!(
        after.rows_hydrated, 0,
        "HBQL execution never hydrates entries"
    );

    shutdown.shutdown();
    join.join().unwrap();
}
