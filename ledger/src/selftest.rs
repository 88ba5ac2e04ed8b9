//! `ledger selftest`: the ledger's own unit checks. The package is run
//! by a driver, not by `cargo test`, so they live behind a subcommand.

use crate::basket::{self, BASKET};
use crate::fleet::parse_banner;
use crate::http::ResponseParser;
use crate::reads::{self, SERVE_READ_MIX};
use crate::scrape::{Delta, Scrape};
use crate::stats::{median, percentile, supported_tail};
use crate::workloads::serve_write::{document, script_shares, write_script};

type Check = (&'static str, fn() -> Result<(), String>);

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn scripts_repeat() -> Result<(), String> {
    let a = reads::script(7, 0, 3648, &SERVE_READ_MIX, 20_000);
    ensure(
        a == reads::script(7, 0, 3648, &SERVE_READ_MIX, 20_000),
        "same seed, different read script",
    )?;
    ensure(
        a != reads::script(8, 0, 3648, &SERVE_READ_MIX, 20_000),
        "different seeds, same read script",
    )?;
    ensure(
        a != reads::script(7, 1, 3648, &SERVE_READ_MIX, 20_000),
        "both connections replay the same script",
    )?;
    let points = a.iter().filter(|op| op.is_point()).count() as f64 / a.len() as f64;
    ensure(
        (points - 0.75).abs() < 0.02,
        "point reads are not 75 % of the mix",
    )?;

    ensure(
        write_script(7, 5000) == write_script(7, 5000),
        "write script differs",
    )?;
    let shares = script_shares(&write_script(7, 20_000));
    let share = |kind: &str| shares.get(kind).copied().unwrap_or(0) as f64 / 20_000.0;
    ensure(
        (share("create") - 0.7).abs() < 0.02
            && (share("replace") - 0.2).abs() < 0.02
            && (share("delete") - 0.1).abs() < 0.02,
        "write script is not 70/20/10",
    )?;
    ensure(
        document(7, 3) == document(7, 3),
        "documents differ for one serial",
    )?;
    ensure(document(7, 3) != document(7, 4), "serials share a document")?;

    ensure(
        basket::requests(7, 0) == basket::requests(7, 0),
        "basket order differs for one seed",
    )?;
    ensure(
        basket::requests(7, 0).len() == BASKET.len() * 3,
        "basket is not every row by every method",
    )?;
    let h = BASKET[0].family.build();
    ensure(
        basket::salted(&h, "s1") == basket::salted(&h, "s1")
            && basket::salted(&h, "s1") != basket::salted(&h, "s2"),
        "salting is not a function of the salt",
    )
}

fn percentile_rule() -> Result<(), String> {
    let v: Vec<u64> = (1..=1000).collect();
    ensure(percentile(&v, 50.0) == 500, "p50 of 1..=1000")?;
    ensure(percentile(&v, 99.0) == 990, "p99 of 1..=1000")?;
    ensure(percentile(&v, 100.0) == 1000, "p100 of 1..=1000")?;
    ensure(percentile(&[], 50.0) == 0, "percentile of nothing")?;
    ensure(percentile(&[42], 99.9) == 42, "percentile of one sample")?;
    // Ten samples must lie beyond the reported percentile.
    ensure(
        supported_tail(10_000) == Some(99.9),
        "10k samples support p99.9",
    )?;
    ensure(
        supported_tail(9_999) == Some(99.0),
        "9999 samples stop at p99",
    )?;
    ensure(
        supported_tail(1_000) == Some(99.0),
        "1000 samples support p99",
    )?;
    ensure(supported_tail(999) == Some(95.0), "999 samples stop at p95")?;
    ensure(supported_tail(200) == Some(95.0), "200 samples support p95")?;
    ensure(supported_tail(100) == Some(90.0), "100 samples support p90")?;
    ensure(supported_tail(99).is_none(), "99 samples support no tail")?;
    ensure(median(&[3.0, 1.0, 2.0]) == 2.0, "median of three set-ups")?;
    ensure(median(&[4.0, 1.0, 2.0, 3.0]) == 2.5, "median of four")
}

fn response_parser() -> Result<(), String> {
    let one =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
    let two = b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}";

    // Canned: one whole response.
    let mut p = ResponseParser::default();
    p.feed(one);
    let frame = p.poll()?.ok_or("whole response not framed")?;
    ensure(
        frame.status == 200 && p.body(&frame) == b"{\"a\":1}",
        "canned response",
    )?;
    p.consume(&frame);
    ensure(p.is_empty(), "bytes left after the only response")?;

    // Split: every byte boundary, nothing framed early.
    for cut in 1..one.len() {
        let mut p = ResponseParser::default();
        p.feed(&one[..cut]);
        ensure(p.poll()?.is_none(), "framed before the last byte")?;
        p.feed(&one[cut..]);
        let frame = p.poll()?.ok_or("split response not framed")?;
        ensure(p.body(&frame) == b"{\"a\":1}", "split response body")?;
    }

    // Pipelined: two responses in one read, header case ignored.
    let mut p = ResponseParser::default();
    p.feed(one);
    p.feed(two);
    let first = p.poll()?.ok_or("first pipelined response")?;
    ensure(first.status == 200, "first pipelined status")?;
    p.consume(&first);
    let second = p.poll()?.ok_or("second pipelined response")?;
    ensure(
        second.status == 404 && p.body(&second) == b"{}",
        "second pipelined response",
    )?;
    p.consume(&second);
    ensure(p.is_empty(), "bytes left after both responses")?;

    // Malformed heads are errors, not hangs.
    let mut p = ResponseParser::default();
    p.feed(b"HTTP/1.1 200 OK\r\n\r\n");
    ensure(
        p.poll().is_err(),
        "response without Content-Length accepted",
    )?;
    let mut p = ResponseParser::default();
    p.feed(b"garbage\r\nContent-Length: 0\r\n\r\n");
    ensure(p.poll().is_err(), "garbage status line accepted")
}

fn scrape_deltas() -> Result<(), String> {
    let before = Scrape::parse(
        "# HELP hyperbench_http_requests_total requests\n\
         # TYPE hyperbench_http_requests_total counter\n\
         hyperbench_http_requests_total 100\n\
         hyperbench_http_handle_us_bucket{le=\"64\"} 90\n\
         hyperbench_http_handle_us_bucket{le=\"+Inf\"} 100\n\
         hyperbench_http_handle_us_sum 5000\n\
         hyperbench_http_handle_us_count 100\n\
         hyperbench_wal_size_bytes 0\n",
    );
    let after = Scrape::parse(
        "hyperbench_http_requests_total 350\n\
         hyperbench_http_handle_us_bucket{le=\"64\"} 300\n\
         hyperbench_http_handle_us_bucket{le=\"+Inf\"} 350\n\
         hyperbench_http_handle_us_sum 30000\n\
         hyperbench_http_handle_us_count 350\n\
         hyperbench_wal_size_bytes 0\n\
         hyperbench_reactor_epoll_wakeups_total 500\n",
    );
    ensure(
        before.get("hyperbench_http_handle_us_bucket{le=\"64\"}") == 90.0,
        "labelled series",
    )?;
    let delta = Delta::between(before, after);
    ensure(
        delta.counter("hyperbench_http_requests_total") == 250.0,
        "counter delta",
    )?;
    ensure(
        delta.histogram_mean("hyperbench_http_handle_us") == 100.0,
        "histogram mean is delta sum over delta count",
    )?;
    ensure(
        delta.histogram_mean("hyperbench_absent_us") == 0.0,
        "absent histogram",
    )?;
    ensure(
        delta.ratio(
            "hyperbench_reactor_epoll_wakeups_total",
            "hyperbench_http_requests_total",
        ) == 2.0,
        "ratio of deltas (a series absent before counts from 0)",
    )?;
    let moved = delta.moved();
    ensure(
        moved
            .iter()
            .all(|(name, _)| !name.contains("_bucket") && name != "hyperbench_wal_size_bytes")
            && moved.len() == 4,
        "moved series exclude buckets and the unmoved",
    )?;
    let summed = Delta::sum(&[delta.clone(), delta]);
    ensure(
        summed.counter("hyperbench_http_requests_total") == 500.0
            && summed.histogram_mean("hyperbench_http_handle_us") == 100.0,
        "summing shards keeps means, adds counts",
    )
}

fn banners() -> Result<(), String> {
    let serve = "hyperbench-server: 3648 entries from /x/c.pack (pack) on http://127.0.0.1:40123 \
                 (epoll reactor, 2 event loops, read-only, 2 analysis workers, 0 warm cache entries)\n";
    ensure(
        parse_banner(serve) == Some("127.0.0.1:40123".parse().expect("literal")),
        "serve banner",
    )?;
    ensure(
        parse_banner("ADDR 127.0.0.1:9\n") == Some("127.0.0.1:9".parse().expect("literal")),
        "route banner",
    )?;
    ensure(
        parse_banner("error: bind failed").is_none(),
        "non-banner accepted",
    )
}

fn manifest_matches() -> Result<(), String> {
    match std::fs::read_to_string("BENCHMARK.json") {
        // Outside a checkout there is nothing to compare with.
        Err(_) => Ok(()),
        Ok(text) => ensure(
            text == crate::metrics::manifest(),
            "BENCHMARK.json differs from `ledger manifest`",
        ),
    }
}

pub fn run() -> Result<i32, String> {
    let checks: [Check; 7] = [
        ("same seed, same scripts and basket", scripts_repeat),
        ("percentile and sample-count rule", percentile_rule),
        ("response parser: canned, split, pipelined", response_parser),
        ("scrape deltas", scrape_deltas),
        ("page envelope byte-compare", reads::envelope_selftest),
        ("startup banners", banners),
        ("BENCHMARK.json is the printed manifest", manifest_matches),
    ];
    let mut failed = 0;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("ok      {name}"),
            Err(why) => {
                failed += 1;
                println!("FAILED  {name}: {why}");
            }
        }
    }
    println!("ledger selftest: {} passed, {failed} failed", 7 - failed);
    Ok(if failed == 0 { 0 } else { 1 })
}
