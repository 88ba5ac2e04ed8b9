//! The read side shared by `serve_read`, `routed_read` and the reader
//! connection of `serve_write`: op scripts precomputed from the seed,
//! the expected answer of every filter walk computed from the corpus
//! mirror, and a connection that replays a script and checks each
//! answer before it counts.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hyperbench_api::dto::{PageDto, QueryResponse};
use hyperbench_api::Json;
use hyperbench_core::format::to_hg;
use hyperbench_datagen::Instance;

use crate::corpus::Corpus;
use crate::http::{self, Conn};
use crate::stats::{Rng, Samples};
use crate::trace::Tracer;

/// Rows per list / HBQL page.
pub const PAGE_LIMIT: usize = 100;

/// One scripted read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    Detail(u32),
    RawHg(u32),
    /// Detail of an id a concurrent writer recently acked (the pick
    /// indexes the shared ring; a base-corpus id while it is empty).
    Recent(u32),
    /// Next page of list walk `n`.
    ListPage(u8),
    /// Next page of HBQL row walk `n`.
    QueryPage(u8),
    OrderBy(u8),
    GroupBy(u8),
}

impl ReadOp {
    pub fn is_point(&self) -> bool {
        matches!(
            self,
            ReadOp::Detail(_) | ReadOp::RawHg(_) | ReadOp::Recent(_)
        )
    }

    fn span_name(&self) -> &'static str {
        match self {
            ReadOp::Detail(_) => "op.detail",
            ReadOp::RawHg(_) => "op.raw_hg",
            ReadOp::Recent(_) => "op.recent_detail",
            ReadOp::ListPage(_) => "op.list_page",
            ReadOp::QueryPage(_) => "op.query_page",
            ReadOp::OrderBy(_) => "op.order_by",
            ReadOp::GroupBy(_) => "op.group_by",
        }
    }
}

/// Shares of each op kind, in percent (summing to 100).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub detail: usize,
    pub raw_hg: usize,
    pub recent: usize,
    pub list: usize,
    pub query: usize,
    pub order: usize,
    pub group: usize,
}

/// The workbench's browse/filter/download mix.
pub const SERVE_READ_MIX: Mix = Mix {
    detail: 60,
    raw_hg: 15,
    recent: 0,
    list: 13,
    query: 8,
    order: 2,
    group: 2,
};

/// The same mix with the aggregates the router answers 422 replaced by
/// row pages.
pub const ROUTED_READ_MIX: Mix = Mix {
    detail: 60,
    raw_hg: 15,
    recent: 0,
    list: 13,
    query: 12,
    order: 0,
    group: 0,
};

/// Reads beside a writer: point reads half on ids the writer acked in
/// the last moments, half uniform over the base corpus, plus list and
/// HBQL pages (no aggregates: their answers move with every commit).
pub const BESIDE_WRITES_MIX: Mix = Mix {
    detail: 40,
    raw_hg: 0,
    recent: 40,
    list: 12,
    query: 8,
    order: 0,
    group: 0,
};

/// The ids a writer most recently created, shared with the reader
/// beside it. Single producer; readers may see a slot one write late,
/// which is as good as any other recent id.
pub struct RecentRing {
    slots: Vec<AtomicUsize>,
    pushed: AtomicUsize,
}

impl RecentRing {
    pub fn new(capacity: usize) -> RecentRing {
        RecentRing {
            slots: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
            pushed: AtomicUsize::new(0),
        }
    }

    pub fn push(&self, id: usize) {
        // Relaxed on the slot, Release on the count: a reader that
        // Acquires `pushed` sees every slot written before it.
        let n = self.pushed.load(Ordering::Relaxed);
        self.slots[n % self.slots.len()].store(id, Ordering::Relaxed);
        self.pushed.store(n + 1, Ordering::Release);
    }

    fn pick(&self, pick: usize) -> Option<usize> {
        let filled = self.pushed.load(Ordering::Acquire).min(self.slots.len());
        (filled > 0).then(|| self.slots[pick % filled].load(Ordering::Relaxed))
    }
}

type Keep = fn(&Instance) -> bool;

/// Filtered keyset list walks: the URL filter and the same predicate
/// over the mirror. Every walk pins a class or collection, so entries
/// uploaded by `serve_write` never join one.
const LIST_WALKS: [(&str, Keep); 6] = [
    ("class=CQ%20Random", |i| i.class.name() == "CQ Random"),
    ("collection=TPC-DS", |i| i.collection == "TPC-DS"),
    ("class=CSP%20Application&min_arity=3", |i| {
        i.class.name() == "CSP Application" && i.hypergraph.arity() >= 3
    }),
    ("collection=Wikidata&max_edges=12", |i| {
        i.collection == "Wikidata" && i.hypergraph.num_edges() <= 12
    }),
    ("class=CSP%20Random&min_edges=20", |i| {
        i.class.name() == "CSP Random" && i.hypergraph.num_edges() >= 20
    }),
    ("class=CQ%20Application&max_arity=4", |i| {
        i.class.name() == "CQ Application" && i.hypergraph.arity() <= 4
    }),
];

/// HBQL row walks (continued by cursor).
const QUERY_WALKS: [(&str, Keep); 3] = [
    (
        "SELECT * WHERE class = 'CSP Random' AND vertices <= 40 LIMIT 100",
        |i| i.class.name() == "CSP Random" && i.hypergraph.num_vertices() <= 40,
    ),
    (
        "SELECT * WHERE (collection = 'SQLShare' OR collection = 'TPC-H') AND edges >= 2 LIMIT 100",
        |i| {
            (i.collection == "SQLShare" || i.collection == "TPC-H") && i.hypergraph.num_edges() >= 2
        },
    ),
    (
        "SELECT * WHERE class = 'CSP Application' AND NOT arity > 4 LIMIT 100",
        |i| i.class.name() == "CSP Application" && i.hypergraph.arity() <= 4,
    ),
];

/// The bytes around a page's rows, cut from the api crate's own
/// encoding of an empty page: `head` + rows + `mid` + cursor + `}`.
/// Comparing bytes first keeps the generator off the CPU the children
/// need; an answer that differs is then judged by its parsed meaning,
/// so a changed encoding costs speed, never a false failure.
struct Envelope {
    head: String,
    mid: String,
}

impl Envelope {
    fn of(encoded_empty_page: &str) -> Option<Envelope> {
        let (head, rest) = encoded_empty_page.split_once("[]")?;
        let mid = rest.strip_suffix("null}")?;
        Some(Envelope {
            head: format!("{head}["),
            mid: format!("]{mid}"),
        })
    }

    /// The page's cursor (`None` on the last page) if `body` is exactly
    /// this envelope around the rows of `ids`.
    fn cursor_of<'b>(
        &self,
        body: &'b [u8],
        rows: &[String],
        ids: &[usize],
    ) -> Option<Option<&'b str>> {
        let mut rest = body.strip_prefix(self.head.as_bytes())?;
        for (n, &id) in ids.iter().enumerate() {
            if n > 0 {
                rest = rest.strip_prefix(b",")?;
            }
            rest = rest.strip_prefix(rows[id].as_bytes())?;
        }
        rest = rest.strip_prefix(self.mid.as_bytes())?;
        if rest == b"null}" {
            return Some(None);
        }
        let token = rest.strip_prefix(b"\"")?.strip_suffix(b"\"}")?;
        let plain = token.iter().all(|b| b.is_ascii_alphanumeric());
        plain
            .then(|| std::str::from_utf8(token).ok())
            .flatten()
            .map(Some)
    }
}

/// One walk: the request target and the ids it must visit, ascending.
pub struct WalkSpec {
    target: String,
    expected: Vec<usize>,
    envelope: Option<Envelope>,
}

struct OrderSpec {
    body: String,
    /// The ids of the one page, in the order the query demands.
    expected: Vec<usize>,
    total: usize,
    envelope: Option<Envelope>,
}

struct GroupSpec {
    body: String,
    key: &'static str,
    agg: &'static str,
    /// `(key value, count, aggregate)` in ascending key order.
    expected: Vec<(String, i64, i64)>,
}

/// Every expected answer of the scripted queries, computed once from
/// the mirror and shared by all connections.
pub struct Workbook {
    /// Each entry's summary row as the api crate encodes it.
    rows: Vec<String>,
    list: Vec<WalkSpec>,
    query: Vec<WalkSpec>,
    order: Vec<OrderSpec>,
    group: Vec<GroupSpec>,
}

fn query_body(hbql: &str, cursor: Option<&str>) -> String {
    let mut fields = vec![("query".to_string(), Json::str(hbql))];
    if let Some(c) = cursor {
        fields.push(("cursor".to_string(), Json::str(c)));
    }
    Json::Obj(fields).to_string()
}

impl Workbook {
    pub fn build(corpus: &Corpus) -> Workbook {
        let rows = (0..corpus.len())
            .map(|id| corpus.summary(id).to_json().to_string())
            .collect();
        let list_envelope =
            |total| Envelope::of(&PageDto::new(total, Vec::new(), None).to_json().to_string());
        let rows_envelope = |total| {
            let empty = QueryResponse::Rows(PageDto::new(total, Vec::new(), None));
            Envelope::of(&empty.to_json().to_string())
        };
        let list = LIST_WALKS
            .iter()
            .map(|(target, keep)| {
                let expected = corpus.matching(keep);
                WalkSpec {
                    target: (*target).to_string(),
                    envelope: list_envelope(expected.len()),
                    expected,
                }
            })
            .collect();
        let query = QUERY_WALKS
            .iter()
            .map(|(hbql, keep)| {
                let expected = corpus.matching(keep);
                WalkSpec {
                    target: (*hbql).to_string(),
                    envelope: rows_envelope(expected.len()),
                    expected,
                }
            })
            .collect();

        let h = |id: usize| corpus.hypergraph(id);
        let mut other = corpus.matching(|i| i.class.name() == "CSP Other");
        other.sort_by_key(|&id| (std::cmp::Reverse(h(id).num_edges()), id));
        let mut random = corpus.matching(|i| i.collection == "Random");
        random.sort_by_key(|&id| (h(id).arity(), std::cmp::Reverse(h(id).num_vertices()), id));
        let order = [
            (
                "SELECT * WHERE class = 'CSP Other' ORDER BY edges DESC, id ASC LIMIT 50",
                other,
                50,
            ),
            (
                "SELECT * WHERE collection = 'Random' ORDER BY arity ASC, vertices DESC, id ASC LIMIT 100",
                random,
                100,
            ),
        ]
        .into_iter()
        .map(|(hbql, sorted, limit)| OrderSpec {
            body: query_body(hbql, None),
            total: sorted.len(),
            envelope: rows_envelope(sorted.len()),
            expected: sorted.into_iter().take(limit).collect(),
        })
        .collect();

        let mut by_collection = std::collections::BTreeMap::<String, (i64, i64)>::new();
        let mut by_class = std::collections::BTreeMap::<String, (i64, i64)>::new();
        for inst in &corpus.instances {
            let edges = inst.hypergraph.num_edges() as i64;
            let slot = by_collection
                .entry(inst.collection.to_string())
                .or_insert((0, i64::MIN));
            slot.0 += 1;
            slot.1 = slot.1.max(edges);
            if edges >= 5 {
                let slot = by_class
                    .entry(inst.class.name().to_string())
                    .or_insert((0, i64::MAX));
                slot.0 += 1;
                slot.1 = slot.1.min(inst.hypergraph.num_vertices() as i64);
            }
        }
        let flatten = |m: std::collections::BTreeMap<String, (i64, i64)>| {
            m.into_iter().map(|(k, (n, a))| (k, n, a)).collect()
        };
        let group = vec![
            GroupSpec {
                body: query_body(
                    "SELECT collection, COUNT(*), MAX(edges) GROUP BY collection",
                    None,
                ),
                key: "collection",
                agg: "max_edges",
                expected: flatten(by_collection),
            },
            GroupSpec {
                body: query_body(
                    "SELECT class, COUNT(*), MIN(vertices) WHERE edges >= 5 GROUP BY class",
                    None,
                ),
                key: "class",
                agg: "min_vertices",
                expected: flatten(by_class),
            },
        ];
        Workbook {
            rows,
            list,
            query,
            order,
            group,
        }
    }
}

/// The op script of connection `conn`: `len` ops drawn from `mix`, ids
/// uniform over the corpus. The same `(seed, conn)` gives the same
/// script, byte for byte.
pub fn script(seed: u64, conn: u64, corpus_len: usize, mix: &Mix, len: usize) -> Vec<ReadOp> {
    let mut rng = Rng::new(seed ^ (conn + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let id = |rng: &mut Rng| rng.below(corpus_len) as u32;
    (0..len)
        .map(|_| {
            let mut roll = rng.below(100);
            let mut take = |share: usize| {
                let hit = roll < share;
                roll = roll.wrapping_sub(share);
                hit
            };
            if take(mix.detail) {
                ReadOp::Detail(id(&mut rng))
            } else if take(mix.raw_hg) {
                ReadOp::RawHg(id(&mut rng))
            } else if take(mix.recent) {
                ReadOp::Recent(rng.next_u64() as u32)
            } else if take(mix.list) {
                ReadOp::ListPage(rng.below(LIST_WALKS.len()) as u8)
            } else if take(mix.query) {
                ReadOp::QueryPage(rng.below(QUERY_WALKS.len()) as u8)
            } else if take(mix.order) {
                ReadOp::OrderBy(rng.below(2) as u8)
            } else {
                debug_assert!(mix.group > 0);
                ReadOp::GroupBy(rng.below(2) as u8)
            }
        })
        .collect()
}

/// Attempt / failure tally of one connection or phase.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Counts {
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
                false
            }
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn merge(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f.clone());
            }
        }
    }
}

#[derive(Default, Clone)]
struct WalkState {
    pos: usize,
    cursor: Option<String>,
}

fn body_hash(body: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut hasher);
    // 0 marks "not seen yet" in the memo tables.
    hasher.finish() | 1
}

fn parse_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

/// One keep-alive connection replaying reads and checking each answer.
/// A failed, refused, timed-out or wrong-answer op counts as failed and
/// yields no latency sample.
pub struct Reader {
    addr: std::net::SocketAddr,
    conn: Option<Conn>,
    corpus: Arc<Corpus>,
    book: Arc<Workbook>,
    list_state: Vec<WalkState>,
    query_state: Vec<WalkState>,
    /// Hash of the body each id answered when it was first checked in
    /// full; later answers only have to hash the same.
    seen_detail: Vec<u64>,
    seen_raw: Vec<u64>,
    pub point: Samples,
    pub page: Samples,
    pub counts: Counts,
    pub tracer: Option<Tracer>,
    /// Set on the reader that runs beside a writer.
    pub recent: Option<Arc<RecentRing>>,
}

impl Reader {
    pub fn new(addr: std::net::SocketAddr, corpus: &Arc<Corpus>, book: &Arc<Workbook>) -> Reader {
        Reader {
            addr,
            conn: None,
            corpus: Arc::clone(corpus),
            book: Arc::clone(book),
            list_state: vec![WalkState::default(); book.list.len()],
            query_state: vec![WalkState::default(); book.query.len()],
            seen_detail: vec![0; corpus.len()],
            seen_raw: vec![0; corpus.len()],
            point: Samples::default(),
            page: Samples::default(),
            counts: Counts::default(),
            tracer: None,
            recent: None,
        }
    }

    /// Opens the connection now. The server deals accepted connections
    /// round-robin over its event loops, so the order in which a stage
    /// connects decides which connections share a loop; stages connect
    /// one after the other, never from racing threads.
    pub fn connect(&mut self) -> Result<(), String> {
        self.conn = Some(Conn::connect(self.addr)?);
        Ok(())
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let conn = self.conn.as_mut().expect("just connected");
        conn.exchange(request)
    }

    /// Runs one op: exchange, check, and only then sample its latency.
    pub fn run(&mut self, op: ReadOp) {
        let outcome = self.attempt(op);
        if outcome.is_err() {
            // The connection's framing can no longer be trusted.
            self.conn = None;
        }
        let ok = self.counts.record(outcome);
        if let (true, Some(conn)) = (ok, &self.conn) {
            let timing = conn.timing;
            if op.is_point() {
                self.point.push(timing.total_ns());
            } else {
                self.page.push(timing.total_ns());
            }
            if let Some(tracer) = &mut self.tracer {
                tracer.op(op.span_name(), &timing);
            }
        }
    }

    fn attempt(&mut self, op: ReadOp) -> Result<(), String> {
        match op {
            ReadOp::Detail(id) => self.detail(id as usize),
            ReadOp::RawHg(id) => self.raw_hg(id as usize),
            ReadOp::Recent(pick) => {
                let recent = self.recent.as_ref().and_then(|r| r.pick(pick as usize));
                self.detail(recent.unwrap_or(pick as usize % self.corpus.len()))
            }
            ReadOp::ListPage(w) => self.list_page(w as usize),
            ReadOp::QueryPage(w) => self.query_page(w as usize),
            ReadOp::OrderBy(q) => self.order_by(q as usize),
            ReadOp::GroupBy(q) => self.group_by(q as usize),
        }
    }

    /// `GET /v1/hypergraphs/{id}`. Ids beyond the mirror (uploads of a
    /// concurrent writer) are checked for status and id only.
    pub fn detail(&mut self, id: usize) -> Result<(), String> {
        let seen = self.seen_detail.get(id).copied();
        let corpus = Arc::clone(&self.corpus);
        let (status, body) = self.exchange(&http::get(&format!("/v1/hypergraphs/{id}")))?;
        if status != 200 {
            return Err(format!("detail {id}: status {status}"));
        }
        let hash = body_hash(body);
        match seen {
            Some(h) if h == hash => Ok(()),
            Some(0) => {
                check_detail(&corpus, id, &parse_json(body)?)?;
                self.seen_detail[id] = hash;
                Ok(())
            }
            Some(_) => Err(format!("detail {id}: body changed between reads")),
            None => {
                let prefix = format!("{{\"id\":{id},");
                if body.starts_with(prefix.as_bytes()) {
                    Ok(())
                } else {
                    Err(format!("detail {id}: body does not start with its id"))
                }
            }
        }
    }

    /// `GET /v1/hypergraphs/{id}/hg`: the exact `.hg` text of the mirror.
    fn raw_hg(&mut self, id: usize) -> Result<(), String> {
        let seen = self.seen_raw[id];
        let corpus = Arc::clone(&self.corpus);
        let (status, body) = self.exchange(&http::get(&format!("/v1/hypergraphs/{id}/hg")))?;
        if status != 200 {
            return Err(format!("raw hg {id}: status {status}"));
        }
        let hash = body_hash(body);
        if seen == hash {
            return Ok(());
        }
        if seen != 0 {
            return Err(format!("raw hg {id}: body changed between reads"));
        }
        if body != to_hg(corpus.hypergraph(id)).as_bytes() {
            return Err(format!(
                "raw hg {id}: text differs from the generated document"
            ));
        }
        self.seen_raw[id] = hash;
        Ok(())
    }

    fn list_page(&mut self, w: usize) -> Result<(), String> {
        let book = Arc::clone(&self.book);
        let spec = &book.list[w];
        let mut path = format!("/v1/hypergraphs?limit={PAGE_LIMIT}&{}", spec.target);
        if let Some(cursor) = &self.list_state[w].cursor {
            path.push_str("&cursor=");
            path.push_str(cursor);
        }
        let corpus = Arc::clone(&self.corpus);
        let pos = self.list_state[w].pos;
        let (status, body) = self.exchange(&http::get(&path))?;
        if status != 200 {
            return Err(format!("list walk {w}: status {status}"));
        }
        let decode = |json: &Json| PageDto::from_json(json).map_err(|e| e.to_string());
        self.list_state[w] = check_walk_page(&corpus, &book.rows, spec, pos, body, decode)
            .map_err(|e| format!("list walk {w} at {pos}: {e}"))?;
        Ok(())
    }

    fn query_page(&mut self, w: usize) -> Result<(), String> {
        let book = Arc::clone(&self.book);
        let spec = &book.query[w];
        let state = &self.query_state[w];
        let request = http::with_body(
            "POST",
            "/v1/query",
            &query_body(&spec.target, state.cursor.as_deref()),
        );
        let corpus = Arc::clone(&self.corpus);
        let pos = state.pos;
        let (status, body) = self.exchange(&request)?;
        if status != 200 {
            return Err(format!("query walk {w}: status {status}"));
        }
        self.query_state[w] = check_walk_page(&corpus, &book.rows, spec, pos, body, rows_of)
            .map_err(|e| format!("query walk {w} at {pos}: {e}"))?;
        Ok(())
    }

    fn order_by(&mut self, q: usize) -> Result<(), String> {
        let book = Arc::clone(&self.book);
        let spec = &book.order[q];
        let corpus = Arc::clone(&self.corpus);
        let (status, body) = self.exchange(&http::with_body("POST", "/v1/query", &spec.body))?;
        if status != 200 {
            return Err(format!("order-by {q}: status {status}"));
        }
        if let Some(envelope) = &spec.envelope {
            if envelope.cursor_of(body, &book.rows, &spec.expected) == Some(None) {
                return Ok(());
            }
        }
        let page = rows_of(&parse_json(body)?)?;
        let ids: Vec<usize> = page.items.iter().map(|s| s.id).collect();
        if page.total != spec.total || ids != spec.expected || page.next_cursor.is_some() {
            return Err(format!(
                "order-by {q}: rows differ from the expected ordering"
            ));
        }
        check_rows(&corpus, &page)
    }

    fn group_by(&mut self, q: usize) -> Result<(), String> {
        let book = Arc::clone(&self.book);
        let spec = &book.group[q];
        let (status, body) = self.exchange(&http::with_body("POST", "/v1/query", &spec.body))?;
        if status != 200 {
            return Err(format!("group-by {q}: status {status}"));
        }
        let json = parse_json(body)?;
        let groups = json
            .get("groups")
            .and_then(Json::as_arr)
            .ok_or("group-by: no groups array")?;
        if json.get("kind").and_then(Json::as_str) != Some("groups")
            || json.get("group_by").and_then(Json::as_str) != Some(spec.key)
            || groups.len() != spec.expected.len()
        {
            return Err(format!("group-by {q}: wrong shape or group count"));
        }
        for (group, (key, count, agg)) in groups.iter().zip(&spec.expected) {
            let same = group.get(spec.key).and_then(Json::as_str) == Some(key)
                && group.get("count").and_then(Json::as_int) == Some(*count)
                && group.get(spec.agg).and_then(Json::as_int) == Some(*agg);
            if !same {
                return Err(format!(
                    "group-by {q}: group {key:?} differs from the mirror"
                ));
            }
        }
        Ok(())
    }
}

fn rows_of(json: &Json) -> Result<PageDto, String> {
    match QueryResponse::from_json(json).map_err(|e| e.to_string())? {
        QueryResponse::Rows(page) => Ok(page),
        QueryResponse::Groups { .. } => Err("expected a rows page, got groups".to_string()),
    }
}

fn check_detail(corpus: &Corpus, id: usize, json: &Json) -> Result<(), String> {
    let detail = hyperbench_api::dto::EntryDetail::from_json(json).map_err(|e| e.to_string())?;
    if detail == corpus.detail(id) {
        Ok(())
    } else {
        Err(format!("detail {id}: differs from the mirror"))
    }
}

fn check_rows(corpus: &Corpus, page: &PageDto) -> Result<(), String> {
    for s in &page.items {
        if s.id >= corpus.len() || *s != corpus.summary(s.id) {
            return Err(format!("row {} differs from the mirror", s.id));
        }
    }
    Ok(())
}

/// Checks one page of a walk standing at `pos`: at most the limit,
/// exactly the next expected ids (so ascending, matching the filter and
/// visited once), rows equal to the mirror, and a cursor exactly when
/// more remain. Returns the walk's next state (restarted when done).
fn check_walk_page(
    corpus: &Corpus,
    rows: &[String],
    spec: &WalkSpec,
    pos: usize,
    body: &[u8],
    decode: impl Fn(&Json) -> Result<PageDto, String>,
) -> Result<WalkState, String> {
    let remaining = &spec.expected[pos..];
    let want = &remaining[..remaining.len().min(PAGE_LIMIT)];
    let end = pos + want.len();
    let more = end < spec.expected.len();
    if let Some(cursor) = spec
        .envelope
        .as_ref()
        .and_then(|e| e.cursor_of(body, rows, want))
    {
        // Byte-identical to the expected page; only the cursor rule is
        // left to check.
        return match (cursor, more) {
            (Some(cursor), true) => Ok(WalkState {
                pos: end,
                cursor: Some(cursor.to_string()),
            }),
            (None, false) => Ok(WalkState::default()),
            (Some(_), false) => Err("cursor after the last page".to_string()),
            (None, true) => Err("no cursor though entries remain".to_string()),
        };
    }
    let page = &decode(&parse_json(body)?)?;
    if page.total != spec.expected.len() {
        return Err(format!(
            "total {} but {} entries match",
            page.total,
            spec.expected.len()
        ));
    }
    if !page.partial.is_empty() {
        return Err("page is partial".to_string());
    }
    if !page.items.iter().map(|s| s.id).eq(want.iter().copied()) {
        return Err("ids differ from the next expected ones".to_string());
    }
    check_rows(corpus, page)?;
    match (&page.next_cursor, more) {
        (Some(cursor), true) => Ok(WalkState {
            pos: end,
            cursor: Some(cursor.clone()),
        }),
        (None, false) => Ok(WalkState::default()),
        (Some(_), false) => Err("cursor after the last page".to_string()),
        (None, true) => Err("no cursor though entries remain".to_string()),
    }
}

/// Self-test of the byte-compare fast path: it must accept exactly the
/// api crate's encoding of the expected page and nothing else.
pub fn envelope_selftest() -> Result<(), String> {
    let rows: Vec<String> = (0..3).map(|id| format!("{{\"id\":{id}}}")).collect();
    let envelope = Envelope::of(&PageDto::new(3, Vec::new(), None).to_json().to_string())
        .ok_or("the api crate's empty page has no `[]` … `null}` to cut at")?;
    let page =
        |items: &str, cursor: &str| format!("{}{items}{}{cursor}}}", envelope.head, envelope.mid);
    let first = page("{\"id\":0},{\"id\":1}", "\"7631ab\"");
    if envelope.cursor_of(first.as_bytes(), &rows, &[0, 1]) != Some(Some("7631ab")) {
        return Err("a page with a cursor was not recognised".to_string());
    }
    let last = page("{\"id\":2}", "null");
    if envelope.cursor_of(last.as_bytes(), &rows, &[2]) != Some(None) {
        return Err("a last page was not recognised".to_string());
    }
    for (body, ids) in [
        (page("{\"id\":0},{\"id\":2}", "null"), &[0usize, 1][..]),
        (page("{\"id\":0}", "null"), &[0, 1][..]),
        (page("{\"id\":0},{\"id\":1}", "null") + " ", &[0, 1][..]),
        (page("{\"id\":0}", "\"a\\\"b\""), &[0][..]),
    ] {
        if envelope.cursor_of(body.as_bytes(), &rows, ids).is_some() {
            return Err(format!("a differing body passed the byte compare: {body}"));
        }
    }
    Ok(())
}
