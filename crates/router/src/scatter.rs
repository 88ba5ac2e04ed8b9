//! Pure scatter-gather page merging.
//!
//! A routed list (or rows-query) page fans out to every active shard,
//! collects one shard-local page from each, and merges them here into
//! one globally-ordered page. Ids federate as
//! `global_id = local_id * shard_count + shard_index`, so each shard's
//! ascending local stream is an ascending global stream and the merge
//! is a k-way sorted merge.
//!
//! The continuation is a [`ScatterCursor`]: one slot per shard,
//! re-encoding each shard's **own** cursor token verbatim. The slot
//! math lives here, sockets nowhere near it, so the
//! never-skip-never-duplicate invariant is provable by property test:
//! walking any fleet with any page sizes yields exactly the sorted
//! global id sequence.
//!
//! The merge needs three things of a shard's answer — each row's `id`,
//! the `total` and the `next_cursor` — and the merged page is the
//! shards' rows again with only their ids moved into the global space.
//! So a page is never decoded into DTOs: [`decode_page`] scans the
//! body once for those three and remembers each row as a [`Row`] of
//! the shard's own bytes, and [`encode_page`] splices the merged body
//! from them. A row's other fields are the shard's contract with the
//! client and pass through verbatim.

use std::fmt::Write;

use hyperbench_api::cursor::{PageCursor, ScatterCursor, ShardSlot};
use hyperbench_api::json::{Json, Walker};
use hyperbench_api::schema;

/// One shard's fetched page, in the shard's own (local) id space.
#[derive(Debug, Clone)]
pub struct ShardPage<T> {
    /// `(local_id, payload)` pairs, ascending by local id.
    pub items: Vec<(usize, T)>,
    /// The shard's own continuation, decoded (`None` = stream done).
    pub next: Option<PageCursor>,
    /// The shard's total match count.
    pub total: usize,
}

/// The merged global page.
#[derive(Debug)]
pub struct Merged<T> {
    /// `(global_id, payload)` pairs, ascending by global id.
    pub items: Vec<(usize, T)>,
    /// Sum of the fetched shards' totals (see the caller's caveat on
    /// multi-page walks: exhausted shards stop contributing).
    pub total: usize,
    /// The next scatter cursor, or `None` when every shard is done.
    pub cursor: Option<ScatterCursor>,
}

/// One row of a shard's page as the shard wrote it, cut around the
/// digits of its `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    /// The row's bytes up to its id's digits.
    head: &'a str,
    /// The row's bytes after them.
    tail: &'a str,
}

/// Reads one shard's page body (a list page, or a rows-query page —
/// the same page with a `kind` in front) into merge input, in one
/// scan. An `Err` says what made the body undecodable: not JSON, no
/// `items` array or integer `total`, a row that is not an object with
/// an integer `id`, or a `next_cursor` that is neither `null` nor one
/// of the shard's cursor tokens.
pub fn decode_page(body: &str) -> Result<ShardPage<Row<'_>>, String> {
    let mut items = None;
    let mut total = None;
    let mut next = None;
    let mut walker = Walker::new(body);
    walker.object(|w, key| {
        match &*key {
            schema::ITEMS => {
                let mut rows = Vec::new();
                w.array(|w| {
                    rows.push(decode_row(w, body)?);
                    Ok(())
                })?;
                items = Some(rows);
            }
            schema::TOTAL => total = Some(decode_usize(w, schema::TOTAL)?),
            schema::NEXT_CURSOR if w.peek() == Some(b'"') => {
                let token = w.string()?;
                next = Some(PageCursor::decode(&token).map_err(|e| e.to_string())?);
            }
            schema::NEXT_CURSOR => {
                if w.skip_value()? != "null" {
                    return Err(format!("{} is not a string", schema::NEXT_CURSOR));
                }
            }
            _ => drop(w.skip_value()?),
        }
        Ok(())
    })?;
    walker.finish()?;
    Ok(ShardPage {
        items: items.ok_or_else(|| format!("no {} array", schema::ITEMS))?,
        next,
        total: total.ok_or_else(|| format!("no {}", schema::TOTAL))?,
    })
}

fn decode_row<'a>(w: &mut Walker<'a>, body: &'a str) -> Result<(usize, Row<'a>), String> {
    let start = w.offset();
    let mut id = None;
    w.object(|w, key| {
        if key == schema::ID {
            let digits = w.offset();
            id = Some((decode_usize(w, schema::ID)?, digits, w.offset()));
        } else {
            w.skip_value()?;
        }
        Ok(())
    })?;
    let (local, digits, after) = id.ok_or_else(|| format!("a row has no {}", schema::ID))?;
    let row = Row {
        head: &body[start..digits],
        tail: &body[after..w.offset()],
    };
    Ok((local, row))
}

fn decode_usize(w: &mut Walker<'_>, field: &str) -> Result<usize, String> {
    w.skip_value()?
        .parse()
        .map_err(|_| format!("{field} is not a non-negative integer"))
}

/// Writes the merged page: byte for byte the body
/// `PageDto::to_json().to_string()` — or, with `rows_query`,
/// `QueryResponse::Rows(..)` — gives for the same rows, each row being
/// what its shard sent with the global id in place of the local one.
/// `partial` lists the shards missing from the page (empty: complete).
pub fn encode_page(rows_query: bool, merged: &Merged<Row<'_>>, partial: &[usize]) -> String {
    let rows: usize = merged
        .items
        .iter()
        .map(|(_, row)| row.head.len() + row.tail.len() + 21)
        .sum();
    let mut out = String::with_capacity(rows + 256);
    out.push('{');
    if rows_query {
        let _ = write!(out, "\"{}\":\"rows\",", schema::KIND);
    }
    let _ = write!(
        out,
        "\"{}\":{},\"{}\":[",
        schema::TOTAL,
        merged.total,
        schema::ITEMS
    );
    for (i, (gid, row)) in merged.items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}{gid}{}", row.head, row.tail);
    }
    let next = merged
        .cursor
        .as_ref()
        .map_or(Json::Null, |c| Json::Str(c.encode()));
    let _ = write!(out, "],\"{}\":{next}", schema::NEXT_CURSOR);
    if !partial.is_empty() {
        let shards = Json::Arr(partial.iter().copied().map(Json::int).collect());
        let _ = write!(out, ",\"{}\":{shards}", schema::PARTIAL);
    }
    out.push('}');
    out
}

/// Merges one scatter round. `pages[i]` is shard `i`'s fetched page,
/// or `None` when the shard was not fetched this round (its incoming
/// slot was `Done`, or the caller skipped it — a skipped shard's slot
/// comes back `Done`, ending its stream in this walk). `incoming` is
/// the cursor the client presented (all-`Start` on the first page).
pub fn merge_pages<T>(
    pages: Vec<Option<ShardPage<T>>>,
    incoming: &[ShardSlot],
    limit: usize,
) -> Merged<T> {
    let n = pages.len();
    assert_eq!(n, incoming.len(), "one incoming slot per shard");
    // Flatten to (global_id, shard, payload) and sort: each shard's
    // stream is already ascending, and gid = local·n + shard keeps it
    // ascending, so this is a k-way merge spelled simply.
    let mut rows: Vec<(usize, usize, T)> = Vec::new();
    let mut total = 0;
    let mut fetched: Vec<Option<(usize, Option<PageCursor>)>> = Vec::with_capacity(n);
    // The emission frontier: a shard whose page filled up (it has a
    // continuation) may hold unfetched items with gids anywhere above
    // its last fetched gid, so nothing beyond the smallest such last
    // gid may be emitted this round — another shard's later item could
    // otherwise jump ahead of it in the global order.
    let mut frontier: Option<usize> = None;
    for (shard, page) in pages.into_iter().enumerate() {
        match page {
            Some(page) => {
                total += page.total;
                if page.next.is_some() {
                    if let Some(&(last_local, _)) = page.items.last() {
                        let last_gid = last_local * n + shard;
                        frontier = Some(frontier.map_or(last_gid, |f| f.min(last_gid)));
                    }
                }
                fetched.push(Some((page.items.len(), page.next)));
                for (local, payload) in page.items {
                    rows.push((local * n + shard, shard, payload));
                }
            }
            None => fetched.push(None),
        }
    }
    rows.sort_by_key(|&(gid, _, _)| gid);
    let emittable = match frontier {
        Some(f) => rows.iter().take_while(|&&(gid, _, _)| gid <= f).count(),
        None => rows.len(),
    };
    let take = emittable.min(limit);
    let leftovers = rows.split_off(take);

    // Per-shard consumption and the last consumed local id.
    let mut consumed = vec![0usize; n];
    let mut last_local = vec![None::<usize>; n];
    let mut items = Vec::with_capacity(rows.len());
    for (gid, shard, payload) in rows {
        consumed[shard] += 1;
        last_local[shard] = Some(gid / n);
        items.push((gid, payload));
    }
    drop(leftovers);

    let shards: Vec<ShardSlot> = (0..n)
        .map(|i| match &fetched[i] {
            // Not fetched this round: the stream is over for this walk.
            None => ShardSlot::Done,
            Some((fetched_count, next)) => {
                if consumed[i] == *fetched_count {
                    // The whole shard page was consumed: continue from
                    // the shard's own cursor, or finish with it.
                    match next {
                        Some(c) => ShardSlot::Resume(*c),
                        None => ShardSlot::Done,
                    }
                } else if consumed[i] == 0 {
                    // Everything this shard fetched sorted after the
                    // page boundary: its position is unchanged.
                    incoming[i]
                } else {
                    // Partially consumed: resume strictly after the
                    // last consumed local id, keeping whatever snapshot
                    // pin the shard (or the incoming slot) carried.
                    let snapshot = next.and_then(|c| c.snapshot).or(match incoming[i] {
                        ShardSlot::Resume(c) => c.snapshot,
                        _ => None,
                    });
                    ShardSlot::Resume(PageCursor {
                        after_id: last_local[i].expect("consumed > 0"),
                        snapshot,
                    })
                }
            }
        })
        .collect();

    let cursor = if shards.iter().all(|s| matches!(s, ShardSlot::Done)) {
        None
    } else {
        Some(ScatterCursor { shards })
    };
    Merged {
        items,
        total,
        cursor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_api::dto::{EntrySummary, PageDto, QueryResponse};
    use proptest::prelude::*;

    /// The payload of every simulated row: the merge never looks at it.
    const ROW: Row<'static> = Row {
        head: "{\"id\":",
        tail: "}",
    };

    /// Simulates one shard's `GET` given its slot: the items strictly
    /// after the cursor position, capped at `page_limit`.
    fn shard_fetch(
        ids: &[usize],
        slot: ShardSlot,
        page_limit: usize,
    ) -> Option<ShardPage<Row<'static>>> {
        let after = match slot {
            ShardSlot::Start => None,
            ShardSlot::Resume(c) => Some(c.after_id),
            ShardSlot::Done => return None,
        };
        let remaining: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| after.is_none_or(|a| id > a))
            .collect();
        let page: Vec<(usize, Row<'static>)> = remaining
            .iter()
            .take(page_limit)
            .map(|&id| (id, ROW))
            .collect();
        let next = if remaining.len() > page.len() {
            Some(PageCursor::after(page.last().unwrap().0))
        } else {
            None
        };
        Some(ShardPage {
            items: page,
            next,
            total: ids.len(),
        })
    }

    /// Walks a simulated fleet to completion, returning every merged
    /// global id in served order.
    pub(super) fn walk(per_shard: &[Vec<usize>], limit: usize, page_limit: usize) -> Vec<usize> {
        let n = per_shard.len();
        let mut slots = vec![ShardSlot::Start; n];
        let mut served = Vec::new();
        for _round in 0..10_000 {
            let pages: Vec<Option<ShardPage<Row<'static>>>> = (0..n)
                .map(|i| shard_fetch(&per_shard[i], slots[i], page_limit))
                .collect();
            let merged = merge_pages(pages, &slots, limit);
            served.extend(merged.items.iter().map(|&(gid, _)| gid));
            match merged.cursor {
                Some(cursor) => {
                    // Round-trip through the wire token each page, as
                    // a real client would.
                    let decoded = ScatterCursor::decode(&cursor.encode()).unwrap();
                    slots = decoded.shards;
                }
                None => return served,
            }
        }
        panic!("walk did not terminate");
    }

    #[test]
    fn three_shard_walk_yields_the_sorted_global_sequence() {
        // 10 global ids over 3 shards: shard = gid % 3, local = gid / 3.
        let per_shard = vec![vec![0, 1, 2, 3], vec![0, 1, 2], vec![0, 1, 2]];
        let expected: Vec<usize> = (0..10).collect();
        for limit in 1..=11 {
            for page_limit in 1..=5 {
                assert_eq!(
                    walk(&per_shard, limit, page_limit),
                    expected,
                    "limit={limit} page_limit={page_limit}"
                );
            }
        }
    }

    #[test]
    fn sparse_and_empty_shards_merge_cleanly() {
        // Shard 1 is empty; shard 2 has one id; gaps everywhere.
        let per_shard = vec![vec![3, 9], vec![], vec![0]];
        // gids: shard0 {9, 27+0=27+?...}: 3*3+0=9, 9*3+0=27; shard2: 0*3+2=2.
        assert_eq!(walk(&per_shard, 2, 2), vec![2, 9, 27]);
    }

    #[test]
    fn a_skipped_shard_ends_its_stream_and_the_rest_continue() {
        let per_shard = [vec![0, 1], vec![0, 1]];
        let slots = vec![ShardSlot::Start, ShardSlot::Start];
        // Shard 1 is down: the caller passes None for it.
        let pages = vec![shard_fetch(&per_shard[0], slots[0], 10), None];
        let merged = merge_pages(pages, &slots, 1);
        assert_eq!(merged.items.len(), 1);
        assert_eq!(merged.items[0].0, 0);
        let cursor = merged.cursor.unwrap();
        assert!(matches!(cursor.shards[1], ShardSlot::Done));
        // The next page only serves shard 0's remainder.
        let pages = vec![
            shard_fetch(&per_shard[0], cursor.shards[0], 10),
            match cursor.shards[1] {
                ShardSlot::Done => None,
                s => shard_fetch(&per_shard[1], s, 10),
            },
        ];
        let merged = merge_pages(pages, &cursor.shards, 10);
        assert_eq!(
            merged.items.iter().map(|i| i.0).collect::<Vec<_>>(),
            vec![2]
        );
        assert!(merged.cursor.is_none());
    }

    /// Splitmix-style generator for reproducible random fleets.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn undecodable_pages_are_errors_and_unknown_fields_pass() {
        let token = PageCursor::after(4).encode();
        let body = format!(
            r#" {{"kind":"rows","total":7,"items":[{{"x":[1,{{}}],"id":4,"y":"\u00e9"}}],"next_cursor":"{token}","more":null}} "#
        );
        let page = decode_page(&body).unwrap();
        assert_eq!(page.total, 7);
        assert_eq!(page.next, Some(PageCursor::after(4)));
        let row = Row {
            head: r#"{"x":[1,{}],"id":"#,
            tail: r#","y":"\u00e9"}"#,
        };
        assert_eq!(page.items, vec![(4, row)]);

        for body in [
            "",
            "<html>",
            "[]",
            r#"{"total":1}"#,
            r#"{"items":[]}"#,
            r#"{"total":1,"items":{}}"#,
            r#"{"total":"1","items":[]}"#,
            r#"{"total":1,"items":[7]}"#,
            r#"{"total":1,"items":[{"collection":"c"}]}"#,
            r#"{"total":1,"items":[{"id":"7"}]}"#,
            r#"{"total":1,"items":[{"id":-7}]}"#,
            r#"{"total":1,"items":[{"id":7,"id":7}]}"#,
            r#"{"total":1,"items":[],"next_cursor":7}"#,
            r#"{"total":1,"items":[],"next_cursor":"zz"}"#,
            r#"{"total":1,"items":[]} trailing"#,
        ] {
            assert!(decode_page(body).is_err(), "{body}");
        }
    }

    /// A string of the characters JSON escapes, and some it does not.
    fn hostile_string(state: &mut u64) -> String {
        const ALPHABET: [&str; 10] = ["\"", "\\", "\n", "\u{1}", " ", "id", ":7,", "é", "😀", "}"];
        (0..mix(state) % 6)
            .map(|_| ALPHABET[(mix(state) % ALPHABET.len() as u64) as usize])
            .collect()
    }

    /// The page the router answered before it spliced bytes: every
    /// shard body decoded into DTOs, merged, ids rewritten, re-encoded.
    /// The reference [`decode_page`] and [`encode_page`] are held to.
    fn dto_path(
        bodies: &[Option<String>],
        slots: &[ShardSlot],
        limit: usize,
        partial: &[usize],
        rows_query: bool,
    ) -> (PageDto, String) {
        let pages = bodies
            .iter()
            .map(|body| {
                let page = PageDto::from_json(&Json::parse(body.as_ref()?).unwrap()).unwrap();
                Some(ShardPage {
                    next: page
                        .next_cursor
                        .as_deref()
                        .map(|token| PageCursor::decode(token).unwrap()),
                    total: page.total,
                    items: page.items.into_iter().map(|row| (row.id, row)).collect(),
                })
            })
            .collect();
        let merged = merge_pages(pages, slots, limit);
        let rows = merged.items.into_iter().map(|(gid, mut row)| {
            row.id = gid;
            row
        });
        let mut page = PageDto::new(
            merged.total,
            rows.collect(),
            merged.cursor.map(|c| c.encode()),
        );
        page.partial = partial.to_vec();
        let body = if rows_query {
            QueryResponse::Rows(page.clone()).to_json().to_string()
        } else {
            page.to_json().to_string()
        };
        (page, body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn spliced_pages_equal_the_dto_path_byte_for_byte(
            n in 1..4usize,
            limit in 1..121usize,
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let rows_query = mix(&mut state) & 1 == 0;
            let mut partial = Vec::new();
            let bodies: Vec<Option<String>> = (0..n)
                .map(|shard| {
                    // A shard that failed under allow-partial: no page.
                    if mix(&mut state).is_multiple_of(5) {
                        partial.push(shard);
                        return None;
                    }
                    let mut id = 0;
                    let items: Vec<EntrySummary> = (0..mix(&mut state) % 101)
                        .map(|_| {
                            id += 1 + (mix(&mut state) % 3) as usize;
                            EntrySummary {
                                id,
                                collection: hostile_string(&mut state),
                                class: hostile_string(&mut state),
                                vertices: (mix(&mut state) % 1000) as usize,
                                edges: (mix(&mut state) % 1000) as usize,
                                arity: (mix(&mut state) % 10) as usize,
                                analyzed: mix(&mut state) & 1 == 0,
                                hw_upper: (mix(&mut state) & 1 == 0).then_some(3),
                                hw_lower: (mix(&mut state) & 1 == 0).then_some(2),
                            }
                        })
                        .collect();
                    let next = (mix(&mut state) & 1 == 0).then(|| {
                        PageCursor {
                            after_id: id,
                            snapshot: (mix(&mut state) & 1 == 0).then_some(mix(&mut state) % 99),
                        }
                        .encode()
                    });
                    let page = PageDto::new(items.len() + (mix(&mut state) % 50) as usize, items, next);
                    Some(if rows_query {
                        QueryResponse::Rows(page).to_json().to_string()
                    } else {
                        page.to_json().to_string()
                    })
                })
                .collect();
            let slots = vec![ShardSlot::Start; n];

            let pages: Vec<_> = bodies
                .iter()
                .map(|body| body.as_deref().map(|b| decode_page(b).unwrap()))
                .collect();
            let spliced = encode_page(rows_query, &merge_pages(pages, &slots, limit), &partial);

            let (page, body) = dto_path(&bodies, &slots, limit, &partial, rows_query);
            prop_assert_eq!(&spliced, &body);
            prop_assert_eq!(PageDto::from_json(&Json::parse(&spliced).unwrap()), Ok(page));
        }

        #[test]
        fn merged_walks_never_skip_or_duplicate_an_id(
            n in 1..7usize,
            population in 0..60usize,
            limit in 1..9usize,
            page_limit in 1..9usize,
            seed in any::<u64>(),
        ) {
            // Scatter `population` global ids over `n` shards with a
            // seeded coin: presence of each gid is random, so local id
            // sequences have arbitrary gaps.
            let mut state = seed;
            let mut per_shard = vec![Vec::new(); n];
            let mut expected = Vec::new();
            for gid in 0..population {
                if mix(&mut state) & 1 == 0 {
                    per_shard[gid % n].push(gid / n);
                    expected.push(gid);
                }
            }
            let served = walk(&per_shard, limit, page_limit);
            prop_assert_eq!(served, expected);
        }
    }
}

#[cfg(test)]
mod exhaustive {
    use super::tests::walk;

    /// Every fleet of up to 3 shards over a 10-gid universe, walked
    /// under every small limit/page-limit pair. Caught the emission
    /// frontier bug: with `per_shard = [[0, 1], [1]]` and a shard page
    /// limit of 1, round one fetched gids {0, 3} while shard 0 still
    /// held the unfetched gid 2, so emitting past shard 0's last
    /// fetched gid served 3 before 2.
    #[test]
    fn every_small_fleet_walks_in_global_order() {
        for n in 1..4usize {
            for mask in 0u32..(1 << 10) {
                let mut per_shard = vec![Vec::new(); n];
                let mut expected = Vec::new();
                for gid in 0..10 {
                    if mask & (1 << gid) != 0 {
                        per_shard[gid % n].push(gid / n);
                        expected.push(gid);
                    }
                }
                for limit in 1..6 {
                    for page_limit in 1..4 {
                        let served = walk(&per_shard, limit, page_limit);
                        assert_eq!(
                            served, expected,
                            "n={n} mask={mask:#b} limit={limit} page_limit={page_limit}"
                        );
                    }
                }
            }
        }
    }
}
