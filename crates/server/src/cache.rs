//! An LRU cache from hypergraph content hashes to finished analysis
//! results (bounds *and* witness decomposition), so repeated submissions
//! of the same hypergraph under the same options are served from memory
//! instead of re-running the decomposition search.
//!
//! When built [`AnalysisCache::with_spill`], every fresh result is also
//! appended to an on-disk spill segment
//! ([`hyperbench_repo::store::spill`]); a restarting server replays the
//! segment through [`AnalysisCache::warm_load`] so its first requests
//! hit warm instead of re-running decomposition searches.
//!
//! Beside it, [`FactsCache`] keeps per document — keyed by the text
//! alone, not the options — what earlier analyses proved
//! ([`InstanceFacts`]), so a miss under one method starts from what
//! another already found.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use hyperbench_api::{AnalyzeMethod, DecompositionDto, Json};
use hyperbench_core::format::{parse_hg, to_hg};
use hyperbench_core::hash::store_fnv64;
use hyperbench_core::Hypergraph;
use hyperbench_decomp::tree::Decomposition;
use hyperbench_repo::store::spill::{SpillRecord, SpillWriter};
use hyperbench_repo::{AnalysisRecord, InstanceFacts};
use hyperbench_telemetry::log::Every;
use hyperbench_telemetry::log_warn;

/// Everything a finished analysis job produced. The witness is kept
/// once, pre-serialized as its wire DTO (names resolved, §3.2
/// conditions validated) by the worker, so repeated polls of a done
/// analysis never repeat that work, including for cache hits whose
/// submitting connection is long gone.
#[derive(Debug)]
pub struct JobResult {
    /// The parsed submission.
    pub hypergraph: Hypergraph,
    /// Which analysis ran.
    pub method: AnalyzeMethod,
    /// The bounds-only analysis record.
    pub record: AnalysisRecord,
    /// The witness in tree form. The job worker and the spill reload
    /// leave it `None`: [`JobResult::witness_dto`] is the one copy of
    /// the witness a cached or retained result keeps.
    pub witness: Option<Decomposition>,
    /// The witness serialized for `GET /v1/analyses/{id}`, validation
    /// verdict included.
    pub witness_dto: Option<DecompositionDto>,
    /// `fhd` only: the `ImproveHD` fractional width, e.g. `"3/2"`.
    pub fractional_width: Option<String>,
}

/// A content hash of a canonicalized `.hg` document (`store_fnv64`).
///
/// FNV is fast but not collision-resistant, so the hash is only an
/// index: every cache/dedup lookup also compares the canonical document
/// itself before treating two submissions as equal. A collision can at
/// worst cause a spurious miss, never a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash(pub u64);

/// Normalizes an `.hg` body for hashing and equality: line endings
/// unified and surrounding whitespace stripped, so trivially
/// reformatted submissions of the same hypergraph text still match.
pub fn canonicalize(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    for line in body.lines() {
        out.push_str(line.trim());
        out.push('\n');
    }
    out
}

/// Hashes a canonicalized body (see [`canonicalize`]).
pub fn content_hash(body: &str) -> ContentHash {
    hash_canonical(&canonicalize(body))
}

/// Hashes text that is already canonical; equal to [`content_hash`] of
/// it, since canonicalizing twice changes nothing.
pub fn hash_canonical(canonical: &str) -> ContentHash {
    ContentHash(store_fnv64(canonical.as_bytes()))
}

/// A bounded map from content hash to (canonical text, value), evicting
/// the least recently used. The text is compared on every lookup, so a
/// hash collision is a miss, never another document's value. Small
/// capacities keep the O(len) reorder on a hit negligible next to an
/// analysis run.
struct Lru<V> {
    map: HashMap<ContentHash, (String, V)>,
    // Front = least recently used.
    order: VecDeque<ContentHash>,
    capacity: usize,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The value stored for exactly `canonical`, refreshed to most
    /// recently used.
    fn get_mut(&mut self, key: ContentHash, canonical: &str) -> Option<&mut V> {
        match self.map.get(&key) {
            Some((doc, _)) if doc == canonical => self.touch(key),
            _ => return None,
        }
        self.map.get_mut(&key).map(|(_, v)| v)
    }

    /// Stores `value` under `key`, replacing what was there. Returns
    /// whether the key was new and whether an entry was evicted to make
    /// room.
    fn insert(&mut self, key: ContentHash, canonical: String, value: V) -> (bool, bool) {
        if self.map.insert(key, (canonical, value)).is_some() {
            self.touch(key);
            return (false, false);
        }
        self.order.push_back(key);
        if self.order.len() <= self.capacity {
            return (true, false);
        }
        if let Some(evicted) = self.order.pop_front() {
            self.map.remove(&evicted);
        }
        (true, true)
    }

    fn touch(&mut self, key: ContentHash) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// Drops every entry whose value fails `keep`; returns how many.
    fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|_, (_, v)| keep(v));
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        before - self.map.len()
    }
}

/// What earlier analyses proved about each recent document, keyed by
/// the canonical document alone ([`hash_canonical`] of
/// [`canonicalize`]d text) — never by the options, so `hd`, `ghd` and
/// `fhd` of one text share it, and never by the repository's structural
/// hash, because the witnesses' ids belong to the parse of that exact
/// text. Lookups do not count as analysis-cache hits or misses.
pub struct FactsCache {
    inner: Mutex<Lru<InstanceFacts>>,
}

impl FactsCache {
    /// A store holding facts for at most `capacity` documents.
    pub fn new(capacity: usize) -> FactsCache {
        FactsCache {
            inner: Mutex::new(Lru::new(capacity)),
        }
    }

    /// The facts recorded for exactly `canonical` (empty when none).
    pub fn get(&self, key: ContentHash, canonical: &str) -> InstanceFacts {
        let mut inner = self.inner.lock().expect("facts lock");
        inner.get_mut(key, canonical).cloned().unwrap_or_default()
    }

    /// Folds `facts` into the record for `canonical`. A record under the
    /// same hash for another text is replaced, never merged.
    pub fn record(&self, key: ContentHash, canonical: &str, facts: InstanceFacts) {
        let mut inner = self.inner.lock().expect("facts lock");
        match inner.get_mut(key, canonical) {
            Some(held) => held.merge(facts),
            None => {
                inner.insert(key, canonical.to_string(), facts);
            }
        }
    }
}

/// Counters exposed through `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// A thread-safe LRU cache of finished analysis results, optionally
/// backed by an on-disk spill segment for warm restarts.
pub struct AnalysisCache {
    inner: Mutex<Inner>,
    spill: Option<Mutex<SpillWriter>>,
}

struct Inner {
    // Options-keyed hash → (keyed canonical document, result).
    lru: Lru<Arc<JobResult>>,
    hits: usize,
    misses: usize,
}

impl AnalysisCache {
    /// A cache holding at most `capacity` records (at least one).
    pub fn new(capacity: usize) -> AnalysisCache {
        AnalysisCache {
            inner: Mutex::new(Inner {
                lru: Lru::new(capacity),
                hits: 0,
                misses: 0,
            }),
            spill: None,
        }
    }

    /// Attaches a spill segment writer: every fresh [`AnalysisCache::put`]
    /// is also appended to the segment, making the cache durable across
    /// restarts (reload it with [`AnalysisCache::warm_load`]).
    pub fn with_spill(mut self, writer: SpillWriter) -> AnalysisCache {
        self.spill = Some(Mutex::new(writer));
        self
    }

    /// Replays recovered spill records into the cache (no spill
    /// re-append, no hit/miss accounting). Records that no longer
    /// decode — unknown method, unparsable payload, malformed witness
    /// JSON — are skipped, not fatal: a stale segment can only make the
    /// cache colder, never wrong. Returns how many records loaded.
    pub fn warm_load(&self, records: impl IntoIterator<Item = SpillRecord>) -> usize {
        let mut loaded = 0;
        for r in records {
            let Some(method) = AnalyzeMethod::parse(&r.method) else {
                continue;
            };
            let Ok(hypergraph) = parse_hg(&r.hg_text) else {
                continue;
            };
            let witness_dto = r
                .witness_json
                .as_deref()
                .and_then(|s| Json::parse(s).ok())
                .and_then(|j| DecompositionDto::from_json(&j).ok());
            let result = Arc::new(JobResult {
                hypergraph,
                method,
                record: r.record,
                witness: None,
                witness_dto,
                fractional_width: r.fractional_width,
            });
            self.insert(ContentHash(r.hash), r.keyed, result);
            loaded += 1;
        }
        loaded
    }

    /// Looks up a record, refreshing its recency on hit. `canonical`
    /// must be the [`canonicalize`]d document; an entry with the same
    /// hash but different content is a miss, not a hit.
    pub fn get(&self, key: ContentHash, canonical: &str) -> Option<Arc<JobResult>> {
        let mut inner = self.inner.lock().expect("cache lock");
        let found = inner.lru.get_mut(key, canonical).map(|rec| Arc::clone(rec));
        if found.is_some() {
            inner.hits += 1;
            crate::metrics::metrics().cache_hits.inc();
        } else {
            inner.misses += 1;
            crate::metrics::metrics().cache_misses.inc();
        }
        found
    }

    /// Inserts a record, evicting the least recently used on overflow.
    /// A fresh insert is also appended to the spill segment, if one is
    /// attached — after the cache lock is released, so disk latency
    /// never serializes concurrent lookups.
    pub fn put(&self, key: ContentHash, canonical: String, record: Arc<JobResult>) {
        let fresh = self.insert(key, canonical.clone(), Arc::clone(&record));
        if !fresh {
            return;
        }
        if let Some(spill) = &self.spill {
            let spill_record = spill_record_of(key, &canonical, &record);
            match spill.lock().expect("spill lock").append(&spill_record) {
                Ok(()) => crate::metrics::metrics().cache_spill_appends.inc(),
                Err(e) => {
                    // Spill durability is best-effort: a full disk must
                    // not fail the analysis that just completed — and
                    // must not spam stderr once per analysis either, so
                    // failures log on the first and every 100th
                    // occurrence with a running total.
                    static SPILL_FAILURE_LOG: Every = Every::new(100);
                    crate::metrics::metrics().cache_spill_append_failures.inc();
                    if let Some(total) = SPILL_FAILURE_LOG.tick() {
                        log_warn!(
                            "cache",
                            "analysis-cache spill append failed";
                            error = e,
                            total_failures = total
                        );
                    }
                }
            }
        }
    }

    /// The in-memory insert shared by [`AnalysisCache::put`] and
    /// [`AnalysisCache::warm_load`]; returns whether the key was new.
    fn insert(&self, key: ContentHash, canonical: String, record: Arc<JobResult>) -> bool {
        let mut inner = self.inner.lock().expect("cache lock");
        let (fresh, evicted) = inner.lru.insert(key, canonical, record);
        if evicted {
            crate::metrics::metrics().cache_evictions.inc();
        }
        fresh
    }

    /// Evicts every cached result whose analyzed hypergraph has the
    /// repository's canonical content hash `hash` — called after a
    /// `PUT`/`DELETE` replaced or removed the instance those results
    /// described, so stale widths can never be served for the new
    /// content. A spill-backed cache also scrubs its segment, keeping
    /// the stale result from warm-loading back at the next restart.
    /// Returns how many in-memory entries were dropped.
    pub fn evict_content(&self, hash: u64) -> usize {
        use hyperbench_repo::store::pack::content_hash_of;
        let evicted = self
            .inner
            .lock()
            .expect("cache lock")
            .lru
            .retain(|rec| content_hash_of(&rec.hypergraph) != hash);
        if let Some(spill) = &self.spill {
            // The segment can hold stale records the LRU already forgot,
            // so the scrub runs even when nothing was resident.
            let result = spill.lock().expect("spill lock").retain(|r| {
                parse_hg(&r.hg_text)
                    .map(|h| content_hash_of(&h) != hash)
                    .unwrap_or(true)
            });
            if let Err(e) = result {
                log_warn!("cache", "spill scrub after write failed"; error = e);
            }
        }
        evicted
    }

    /// A snapshot of the hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            len: inner.lru.map.len(),
            capacity: inner.lru.capacity,
        }
    }
}

/// The spill-segment form of a finished result. The witness travels as
/// its wire-DTO JSON (already computed by the worker); per-`k` step
/// timings are dropped, matching the pack.
fn spill_record_of(key: ContentHash, keyed: &str, result: &JobResult) -> SpillRecord {
    let mut record = result.record.clone();
    record.hw_steps.clear();
    SpillRecord {
        hash: key.0,
        keyed: keyed.to_string(),
        method: result.method.as_str().to_string(),
        hg_text: to_hg(&result.hypergraph),
        record,
        witness_json: result.witness_dto.as_ref().map(|d| d.to_json().to_string()),
        fractional_width: result.fractional_width.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;
    use hyperbench_repo::{analyze_instance, AnalysisConfig};

    fn record() -> Arc<JobResult> {
        let h = hypergraph_from_edges(&[("e", &["a", "b"])]);
        let record = analyze_instance(&h, &AnalysisConfig::default());
        Arc::new(JobResult {
            hypergraph: h,
            method: AnalyzeMethod::Hd,
            record,
            witness: None,
            witness_dto: None,
            fractional_width: None,
        })
    }

    #[test]
    fn hash_normalizes_whitespace_but_not_content() {
        let a = content_hash("e(a,b),\nf(b,c).\n");
        let b = content_hash("  e(a,b),\r\n\tf(b,c).");
        let c = content_hash("e(a,b),\nf(b,d).\n");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            canonicalize("  e(a,b),\r\n\tf(b,c)."),
            canonicalize("e(a,b),\nf(b,c).\n")
        );
    }

    #[test]
    fn colliding_hash_with_different_content_is_a_miss() {
        let cache = AnalysisCache::new(4);
        cache.put(ContentHash(5), "doc-a\n".to_string(), record());
        // Same hash, different canonical content: must not serve doc-a's
        // record.
        assert!(cache.get(ContentHash(5), "doc-b\n").is_none());
        assert!(cache.get(ContentHash(5), "doc-a\n").is_some());
    }

    /// Facts for the triangle after an hd analysis.
    fn triangle_facts() -> InstanceFacts {
        let h = parse_hg("r(a,b),s(b,c),t(c,a).").unwrap();
        let mut facts = InstanceFacts::new();
        hyperbench_repo::analyze_with_facts(
            &h,
            &AnalysisConfig::default(),
            AnalyzeMethod::Hd,
            &mut facts,
        );
        assert_eq!(facts.hw(), Some(2));
        facts
    }

    #[test]
    fn facts_of_a_colliding_document_are_never_shared() {
        let store = FactsCache::new(4);
        let facts = triangle_facts();
        store.record(ContentHash(5), "doc-a\n", facts);
        assert_eq!(store.get(ContentHash(5), "doc-a\n").hw(), Some(2));
        // Same hash, other text: nothing known.
        assert!(store.get(ContentHash(5), "doc-b\n").is_empty());
        // Recording the other text replaces, never merges.
        store.record(ContentHash(5), "doc-b\n", InstanceFacts::new());
        assert!(store.get(ContentHash(5), "doc-a\n").is_empty());
        assert_eq!(store.get(ContentHash(5), "doc-b\n").hw(), None);
    }

    #[test]
    fn facts_merge_per_canonical_document() {
        let store = FactsCache::new(1);
        let doc = canonicalize("r(a,b),\r\n  s(b,c),t(c,a).");
        let key = hash_canonical(&doc);
        assert_eq!(key, content_hash("r(a,b),\n s(b,c),t(c,a).\n"));
        assert!(store.get(key, &doc).is_empty());
        let facts = triangle_facts();
        store.record(key, &doc, facts);
        // A later record without the width keeps the one held.
        store.record(key, &doc, InstanceFacts::new());
        assert_eq!(store.get(key, &doc).hw(), Some(2));
        // Capacity one: the next document evicts it.
        store.record(ContentHash(1), "other\n", InstanceFacts::new());
        assert!(store.get(key, &doc).is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let cache = AnalysisCache::new(2);
        let (k1, k2, k3) = (ContentHash(1), ContentHash(2), ContentHash(3));
        cache.put(k1, "1".into(), record());
        cache.put(k2, "2".into(), record());
        // Touch k1 so k2 becomes the eviction victim.
        assert!(cache.get(k1, "1").is_some());
        cache.put(k3, "3".into(), record());
        assert!(cache.get(k2, "2").is_none(), "k2 should have been evicted");
        assert!(cache.get(k1, "1").is_some());
        assert!(cache.get(k3, "3").is_some());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = AnalysisCache::new(4);
        let k = ContentHash(9);
        assert!(cache.get(k, "d").is_none());
        cache.put(k, "d".into(), record());
        assert!(cache.get(k, "d").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len, s.capacity), (1, 1, 1, 4));
    }

    #[test]
    fn spilled_results_reload_warm() {
        use hyperbench_repo::store::spill;
        let path = std::env::temp_dir().join(format!(
            "hyperbench-cache-spill-test-{}.spill",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // First "server lifetime": a cache with a spill writer.
        let cache =
            AnalysisCache::new(8).with_spill(spill::SpillWriter::open_append(&path).unwrap());
        let keyed = "hd:8:250\ne(a,b).\n".to_string();
        let key = content_hash(&keyed);
        cache.put(key, keyed.clone(), record());
        // Re-putting the same key does not duplicate the spill record.
        cache.put(key, keyed.clone(), record());
        drop(cache);
        assert_eq!(spill::read_all(&path).unwrap().len(), 1);
        // Second lifetime: recover + warm_load, then the lookup hits.
        let (records, problem) = spill::recover(&path).unwrap();
        assert!(problem.is_none());
        let warm = AnalysisCache::new(8);
        assert_eq!(warm.warm_load(records), 1);
        let hit = warm.get(key, &keyed).expect("warm cache must hit");
        assert_eq!(hit.method, AnalyzeMethod::Hd);
        assert_eq!(hit.record.hw_exact(), Some(1));
        // Counters: the warm load itself is not a hit or miss.
        assert_eq!(warm.stats().hits, 1);
        assert_eq!(warm.stats().len, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn warm_load_skips_undecodable_records() {
        let cache = AnalysisCache::new(8);
        let h = hypergraph_from_edges(&[("e", &["a", "b"])]);
        let rec = analyze_instance(&h, &AnalysisConfig::default());
        let good = hyperbench_repo::store::spill::SpillRecord {
            hash: 1,
            keyed: "k1".to_string(),
            method: "hd".to_string(),
            hg_text: "e(a,b).".to_string(),
            record: rec.clone(),
            witness_json: None,
            fractional_width: None,
        };
        let bad_method = hyperbench_repo::store::spill::SpillRecord {
            hash: 2,
            keyed: "k2".to_string(),
            method: "quantum".to_string(),
            ..good.clone()
        };
        let bad_payload = hyperbench_repo::store::spill::SpillRecord {
            hash: 3,
            keyed: "k3".to_string(),
            hg_text: "not a hypergraph(((".to_string(),
            ..good.clone()
        };
        assert_eq!(cache.warm_load([good, bad_method, bad_payload]), 1);
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn evict_content_drops_memory_and_spill_entries() {
        use hyperbench_repo::store::{pack::content_hash_of, spill};
        let path = std::env::temp_dir().join(format!(
            "hyperbench-cache-evict-test-{}.spill",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cache =
            AnalysisCache::new(8).with_spill(spill::SpillWriter::open_append(&path).unwrap());
        // Two cached analyses of the same hypergraph under different
        // options keys, plus one for an unrelated hypergraph.
        let rec = record();
        let target = content_hash_of(&rec.hypergraph);
        cache.put(ContentHash(1), "hd\ne(a,b).\n".into(), Arc::clone(&rec));
        cache.put(ContentHash(2), "ghd\ne(a,b).\n".into(), rec);
        let other_h = hypergraph_from_edges(&[("f", &["x", "y", "z"])]);
        let other = Arc::new(JobResult {
            record: analyze_instance(&other_h, &AnalysisConfig::default()),
            hypergraph: other_h,
            method: AnalyzeMethod::Hd,
            witness: None,
            witness_dto: None,
            fractional_width: None,
        });
        cache.put(ContentHash(3), "hd\nf(x,y,z).\n".into(), other);
        assert_eq!(cache.evict_content(target), 2);
        assert!(cache.get(ContentHash(1), "hd\ne(a,b).\n").is_none());
        assert!(cache.get(ContentHash(2), "ghd\ne(a,b).\n").is_none());
        assert!(cache.get(ContentHash(3), "hd\nf(x,y,z).\n").is_some());
        drop(cache);
        // The spill segment was scrubbed too: a warm reload cannot
        // resurrect the stale results.
        let survivors = spill::read_all(&path).unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].hash, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let cache = AnalysisCache::new(2);
        cache.put(ContentHash(1), "1".into(), record());
        cache.put(ContentHash(1), "1".into(), record());
        assert_eq!(cache.stats().len, 1, "re-put must not duplicate");
        cache.put(ContentHash(2), "2".into(), record());
        // Re-putting 1 refreshes its recency, so 2 is now the LRU victim.
        cache.put(ContentHash(1), "1".into(), record());
        cache.put(ContentHash(3), "3".into(), record());
        assert_eq!(cache.stats().len, 2);
        assert!(cache.get(ContentHash(2), "2").is_none());
        assert!(cache.get(ContentHash(1), "1").is_some());
        assert!(cache.get(ContentHash(3), "3").is_some());
    }
}
