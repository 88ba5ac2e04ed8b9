//! The HBQL executor: evaluates a resolved [`Plan`] over a metadata
//! scan, never touching full entries.
//!
//! Every catalog field resolves from [`EntryMeta`], so row pages are
//! built straight from the scan — zero pack-page hydrations — and the
//! keyset contract matches `Repository::try_select_after` exactly, which
//! is what lets the `?key=value` filter params desugar into this path
//! with byte-identical responses.
//!
//! ## The scan contract
//!
//! Every shape is one pass over the scan it is handed, and a scanned
//! row costs no lookup and no allocation:
//!
//! * a field is read by a `match` on its [`Field`], and a comparison
//!   was compiled for the field's type by the resolver (strings test
//!   with `==`);
//! * a rows page allocates only the summaries it returns;
//! * an `ORDER BY` page keeps the matching rows' borrowed
//!   [`EntryMeta`]s, partitions them around `LIMIT` and sorts only the
//!   page, so only the returned rows become summaries;
//! * a `GROUP BY` keys its groups by the borrowed `&str`, allocating once
//!   per group.
//!
//! The scanned-row count goes into `hyperbench_query_rows_scanned_total`
//! once per scan, after it, not once per row.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::time::Instant;

use hyperbench_api::dto::EntrySummary;
use hyperbench_api::json::Json;
use hyperbench_repo::EntryMeta;

use crate::ast::CmpOp;
use crate::catalog::{self, Field, FieldValue};
use crate::metrics::metrics;
use crate::resolve::{AggItem, Plan, Pred, Shape};

/// One keyset page of entry-summary rows; the contract of
/// `Repository::try_select_after`, with summaries in place of entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPage {
    /// The rows of this page.
    pub items: Vec<EntrySummary>,
    /// Total matches across all pages.
    pub total: usize,
    /// Keyset continuation (`None` on the last page, and always `None`
    /// for `ORDER BY` queries, which have no cursorable id order).
    pub next_after: Option<usize>,
}

/// The result of an aggregate query: one JSON object per group, fields
/// in select-list order, groups in ascending key order.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRows {
    /// The `GROUP BY` field name, or `None` for the single global group.
    pub group_by: Option<String>,
    /// One object per group.
    pub groups: Vec<Json>,
}

/// The entry-summary DTO of one metadata row — field-for-field what the
/// server builds from a hydrated entry, so meta-built pages serialize
/// byte-identically.
pub fn summary_of_meta(meta: &EntryMeta<'_>) -> EntrySummary {
    EntrySummary {
        id: meta.id,
        collection: meta.collection.to_string(),
        class: meta.class.to_string(),
        vertices: meta.vertices,
        edges: meta.edges,
        arity: meta.arity,
        analyzed: meta.analysis.is_some(),
        hw_upper: meta.analysis.and_then(|r| r.hw_upper),
        hw_lower: meta.analysis.map(|r| r.hw_lower),
    }
}

fn eval_pred(meta: &EntryMeta<'_>, pred: &Pred) -> bool {
    // A comparison against an absent value is false — the two-valued
    // semantics `Filter::matches_meta` already uses for analysis-
    // dependent conditions on unanalyzed entries.
    match pred {
        Pred::And(l, r) => eval_pred(meta, l) && eval_pred(meta, r),
        Pred::Or(l, r) => eval_pred(meta, l) || eval_pred(meta, r),
        Pred::Not(inner) => !eval_pred(meta, inner),
        Pred::Int { field, op, value } => match catalog::value_of(meta, *field) {
            Some(FieldValue::Int(actual)) => match op {
                CmpOp::Eq => actual == *value,
                CmpOp::Ne => actual != *value,
                CmpOp::Lt => actual < *value,
                CmpOp::Le => actual <= *value,
                CmpOp::Gt => actual > *value,
                CmpOp::Ge => actual >= *value,
            },
            _ => false,
        },
        Pred::Str { field, eq, value } => match catalog::value_of(meta, *field) {
            Some(FieldValue::Str(actual)) => (actual == value) == *eq,
            _ => false,
        },
        Pred::Bool { field, eq, value } => match catalog::value_of(meta, *field) {
            Some(FieldValue::Bool(actual)) => (actual == *value) == *eq,
            _ => false,
        },
    }
}

/// Orders two rows by one `ORDER BY` key: absent values last regardless
/// of direction, present values by natural order (reversed for `DESC`).
fn cmp_key(a: &EntryMeta<'_>, b: &EntryMeta<'_>, field: Field, desc: bool) -> Ordering {
    let ord = match (catalog::value_of(a, field), catalog::value_of(b, field)) {
        (None, None) => return Ordering::Equal,
        (None, Some(_)) => return Ordering::Greater,
        (Some(_), None) => return Ordering::Less,
        (Some(FieldValue::Int(x)), Some(FieldValue::Int(y))) => x.cmp(&y),
        (Some(FieldValue::Str(x)), Some(FieldValue::Str(y))) => x.cmp(y),
        (Some(FieldValue::Bool(x)), Some(FieldValue::Bool(y))) => x.cmp(&y),
        _ => unreachable!("one field, one type"),
    };
    if desc {
        ord.reverse()
    } else {
        ord
    }
}

impl Plan {
    /// Whether one entry's metadata passes the `WHERE` predicate.
    pub fn matches(&self, meta: &EntryMeta<'_>) -> bool {
        self.filter.as_ref().is_none_or(|p| eval_pred(meta, p))
    }

    /// Executes a rows plan as a keyset page: scan in id order, skip
    /// matches at or before `after`, return up to `limit` rows. With an
    /// `ORDER BY` the full match set is sorted instead and `after` is
    /// ignored (the server rejects cursors on ordered queries);
    /// `next_after` is then always `None`.
    pub fn execute_rows<'a>(
        &self,
        metas: impl Iterator<Item = EntryMeta<'a>>,
        after: Option<usize>,
        limit: usize,
    ) -> RowPage {
        let start = Instant::now();
        let mut scanned = 0u64;
        let metas = metas.inspect(|_| scanned += 1);
        let page = match &self.shape {
            Shape::Rows { order } if order.is_empty() => {
                let mut total = 0usize;
                let mut items = Vec::new();
                let mut has_more = false;
                for meta in metas {
                    if !self.matches(&meta) {
                        continue;
                    }
                    total += 1;
                    if after.is_some_and(|a| meta.id <= a) {
                        continue;
                    }
                    if items.len() < limit {
                        items.push(summary_of_meta(&meta));
                    } else {
                        has_more = true;
                    }
                }
                let next_after = if has_more {
                    items.last().map(|s| s.id)
                } else {
                    None
                };
                RowPage {
                    items,
                    total,
                    next_after,
                }
            }
            Shape::Rows { order } => {
                let mut rows: Vec<EntryMeta<'a>> = metas.filter(|m| self.matches(m)).collect();
                let total = rows.len();
                // Ids are unique, so this is a total order and the
                // first `limit` rows are the same however they were
                // reached: partition around the limit, then sort the
                // page alone.
                let cmp = |a: &EntryMeta<'_>, b: &EntryMeta<'_>| {
                    order
                        .iter()
                        .map(|&(field, desc)| cmp_key(a, b, field, desc))
                        .find(|ord| ord.is_ne())
                        .unwrap_or_else(|| a.id.cmp(&b.id))
                };
                if limit < rows.len() {
                    rows.select_nth_unstable_by(limit, cmp);
                    rows.truncate(limit);
                }
                rows.sort_unstable_by(cmp);
                RowPage {
                    items: rows.iter().map(summary_of_meta).collect(),
                    total,
                    next_after: None,
                }
            }
            Shape::Groups { .. } => unreachable!("execute_rows called on an aggregate plan"),
        };
        let m = metrics();
        m.rows_scanned.add(scanned);
        m.execute_us.observe(start.elapsed().as_micros() as u64);
        page
    }

    /// Executes an aggregate plan: one pass over the scan, groups
    /// keyed by the `GROUP BY` field (or one global group), emitted in
    /// ascending key order with fields in select-list order.
    pub fn execute_groups<'a>(&self, metas: impl Iterator<Item = EntryMeta<'a>>) -> GroupRows {
        let Shape::Groups { key, items } = &self.shape else {
            unreachable!("execute_groups called on a rows plan");
        };
        let start = Instant::now();
        let mut groups: BTreeMap<Option<&'a str>, Accum> = BTreeMap::new();
        let mut scanned = 0u64;
        for meta in metas {
            scanned += 1;
            if !self.matches(&meta) {
                continue;
            }
            let group = key.map(|f| match catalog::value_of(&meta, f) {
                Some(FieldValue::Str(s)) => s,
                _ => unreachable!("group keys are always-present string fields"),
            });
            let acc = groups
                .entry(group)
                .or_insert_with(|| Accum::new(items.len()));
            acc.count += 1;
            for (i, item) in items.iter().enumerate() {
                let field = match item {
                    AggItem::Min(f) | AggItem::Max(f) | AggItem::Avg(f) => *f,
                    AggItem::Key | AggItem::Count => continue,
                };
                let Some(FieldValue::Int(v)) = catalog::value_of(&meta, field) else {
                    continue; // absent values don't contribute
                };
                let cell = &mut acc.cells[i];
                cell.n += 1;
                cell.sum += v as i128;
                cell.min = Some(cell.min.map_or(v, |m: i64| m.min(v)));
                cell.max = Some(cell.max.map_or(v, |m: i64| m.max(v)));
            }
        }
        let group_by = key.map(|f| f.name().to_string());
        let mut out = Vec::with_capacity(groups.len());
        let limit = self.limit.map_or(usize::MAX, |l| l as usize);
        for (group, acc) in groups.into_iter().take(limit) {
            let mut fields: Vec<(String, Json)> = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let cell = &acc.cells[i];
                let (label, value) = match item {
                    AggItem::Key => {
                        let name = group_by.as_deref().expect("key item implies GROUP BY");
                        let key = group.expect("grouped scan has a key");
                        (name.to_string(), Json::str(key))
                    }
                    AggItem::Count => ("count".to_string(), Json::int(acc.count)),
                    AggItem::Min(f) => (
                        format!("min_{}", f.name()),
                        cell.min.map_or(Json::Null, Json::int),
                    ),
                    AggItem::Max(f) => (
                        format!("max_{}", f.name()),
                        cell.max.map_or(Json::Null, Json::int),
                    ),
                    AggItem::Avg(f) => (
                        format!("avg_{}", f.name()),
                        if cell.n == 0 {
                            Json::Null
                        } else {
                            Json::str(format_avg(cell.sum, cell.n))
                        },
                    ),
                };
                fields.push((label, value));
            }
            out.push(Json::Obj(fields));
        }
        let m = metrics();
        m.rows_scanned.add(scanned);
        m.execute_us.observe(start.elapsed().as_micros() as u64);
        GroupRows {
            group_by,
            groups: out,
        }
    }
}

/// Per-group accumulator: the count plus one cell per select item.
struct Accum {
    count: u64,
    cells: Vec<Cell>,
}

#[derive(Clone, Default)]
struct Cell {
    n: u64,
    sum: i128,
    min: Option<i64>,
    max: Option<i64>,
}

impl Accum {
    fn new(items: usize) -> Accum {
        Accum {
            count: 0,
            cells: vec![Cell::default(); items],
        }
    }
}

/// Formats an average to three decimal places, half-up, as a string —
/// the wire speaks integers and strings, never floats.
fn format_avg(sum: i128, n: u64) -> String {
    let n = n as i128;
    let scaled = (sum * 1000 + n / 2).div_euclid(n);
    format!("{}.{:03}", scaled.div_euclid(1000), scaled.rem_euclid(1000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_formats_to_three_decimals_half_up() {
        assert_eq!(format_avg(5, 2), "2.500");
        assert_eq!(format_avg(10, 3), "3.333");
        assert_eq!(format_avg(2, 3), "0.667");
        assert_eq!(format_avg(7, 1), "7.000");
        assert_eq!(format_avg(0, 4), "0.000");
    }
}
