//! `query`: HBQL compilation and the three executor shapes the read
//! mix uses, straight off the pack's metadata index.

use std::hint::black_box;

use hyperbench_repo::Repository;

use super::{own_counter, Probes};

const ROWS: &str = "SELECT * WHERE class = 'CSP Random' AND vertices <= 40 LIMIT 100";
const ORDER: &str =
    "SELECT * WHERE collection = 'Random' ORDER BY arity ASC, vertices DESC, id ASC LIMIT 100";
const GROUPS: &str = "SELECT collection, COUNT(*), MAX(edges) GROUP BY collection";

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    let repo = Repository::open_pack(&p.inputs.pack).map_err(|e| e.to_string())?;
    let compile = |text: &str| hyperbench_query::compile(text).map_err(|e| format!("{text}: {e}"));
    let (rows, order, groups) = (compile(ROWS)?, compile(ORDER)?, compile(GROUPS)?);

    let texts = [ROWS, ORDER, GROUPS];
    let mut next = 0;
    p.time("query.compile_us", 1e3, || {
        black_box(hyperbench_query::compile(texts[next % texts.len()]).is_ok());
        next += 1;
    });

    let scanned = own_counter("hyperbench_query_rows_scanned_total");
    let hydrated = own_counter("hyperbench_query_rows_hydrated_total");
    let mut returned = 0usize;
    p.time("query.exec_rows_us", 1e3, || {
        returned += black_box(rows.execute_rows(repo.metas(), None, 100))
            .items
            .len();
    });
    p.record(
        "query.rows_scanned_per_row",
        (own_counter("hyperbench_query_rows_scanned_total") - scanned) / (returned as f64).max(1.0),
    );
    p.time("query.exec_order_us", 1e3, || {
        black_box(order.execute_rows(repo.metas(), None, 100));
    });
    p.time("query.exec_groups_us", 1e3, || {
        black_box(groups.execute_groups(repo.metas()));
    });
    // Every field resolves from the metadata index: no page may hydrate.
    p.record(
        "query.rows_hydrated",
        own_counter("hyperbench_query_rows_hydrated_total") - hydrated,
    );
    Ok(())
}
