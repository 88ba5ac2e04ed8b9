//! # hyperbench-repo
//!
//! The HyperBench *tool*: a repository of hypergraphs together with the
//! results of their analyses (§5 of the paper). The original project
//! exposes this as a web interface at `hyperbench.dbai.tuwien.ac.at`; this
//! crate provides the same operations as a library (and the `hyperbench`
//! CLI wraps them):
//!
//! * insert hypergraphs (tagged with collection and class),
//! * attach analysis records (structural properties, hw/ghw bounds),
//! * retrieve and filter ("all CSP instances with hw ≤ 5 and BIP ≤ 2"),
//! * persist to a single paged, checksummed `repo.pack` file
//!   ([`store::pack`]) that opens without parsing any `.hg` payload and
//!   hydrates entries lazily, page by page; a directory of `.hg` files
//!   plus an `index.tsv` manifest ([`store::tree`]) is the interchange
//!   format it imports from and exports to.
//!
//! A [`Repository`] has one shape: an immutable pack base (no rows and
//! no file for [`Repository::new`]) plus an overlay of the entries
//! written since, keyed by id. Reads walk the base's rows merged with the
//! overlay in id order, so a filter is evaluated against the metadata
//! index and touches the pack file only for the entries a query returns.
//! Writes go to the overlay on any repository; [`store::pack::write_pack`]
//! folds both into a new pack. The MVCC store's generations
//! ([`store::mvcc`]) are repositories too.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod filter;
pub mod metrics;
pub mod store;

pub use analysis::{
    aggregate_stats, aggregate_stats_from, analyze_instance, analyze_instance_retaining,
    analyze_with_facts, AnalysisConfig, AnalysisRecord, AnalyzedInstance, InstanceFacts, RepoStats,
};
pub use filter::{Filter, FilterParamError};
pub use store::StoreError;

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use hyperbench_core::Hypergraph;

use store::pack::{content_hash_of, PackStore, Record};

/// Class labels mirroring `hyperbench_datagen::BenchClass` but kept
/// string-typed here so the repository does not depend on the generators.
pub type ClassName = String;

/// One repository entry: a hypergraph plus provenance and analysis.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Stable id within the repository.
    pub id: usize,
    /// Collection name (e.g. `TPC-H`).
    pub collection: String,
    /// Class name (e.g. `CQ Application`).
    pub class: ClassName,
    /// The hypergraph.
    pub hypergraph: Hypergraph,
    /// Analysis results, if computed.
    pub analysis: Option<AnalysisRecord>,
}

/// The lightweight per-entry metadata a repository answers without
/// hydrating the hypergraph payload: provenance, size counters, and the
/// analysis record. This is what [`Filter`] conditions are evaluated
/// against ([`Filter::matches_meta`]) and what [`aggregate_stats`]
/// consumes, so filtered scans and `/stats` aggregates never touch a
/// single data page.
#[derive(Debug, Clone)]
pub struct EntryMeta<'a> {
    /// Stable id within the repository.
    pub id: usize,
    /// Collection name.
    pub collection: &'a str,
    /// Class name.
    pub class: &'a str,
    /// Vertex count of the hypergraph.
    pub vertices: usize,
    /// Edge count of the hypergraph.
    pub edges: usize,
    /// Maximum edge size of the hypergraph.
    pub arity: usize,
    /// The analysis record, when computed.
    pub analysis: Option<&'a AnalysisRecord>,
}

impl<'a> EntryMeta<'a> {
    /// The metadata view of a resident entry.
    pub fn of(e: &'a Entry) -> EntryMeta<'a> {
        EntryMeta {
            id: e.id,
            collection: &e.collection,
            class: &e.class,
            vertices: e.hypergraph.num_vertices(),
            edges: e.hypergraph.num_edges(),
            arity: e.hypergraph.arity(),
            analysis: e.analysis.as_ref(),
        }
    }
}

/// A live overlay value: the entry and, when known, its content hash.
/// The MVCC commit path computes the hash once per write, so no later
/// read re-serializes the hypergraph to learn it; a plain
/// [`Repository::insert`] leaves it to whoever asks first (a pack writer
/// hashes the text it serializes anyway).
#[derive(Debug, Clone)]
pub(crate) struct Live {
    pub(crate) entry: Arc<Entry>,
    pub(crate) hash: Option<u64>,
}

impl Live {
    fn hash(&self) -> u64 {
        self.hash
            .unwrap_or_else(|| content_hash_of(&self.entry.hypergraph))
    }
}

/// An overlay value: the commit that produced it, and what it committed
/// (`None` is a tombstone).
pub(crate) type Overlay = BTreeMap<usize, (u64, Option<Live>)>;

/// A repository of hypergraphs and analyses: a pack base (see
/// [`Repository::open_pack`]; empty for [`Repository::new`]) plus an
/// overlay of the writes made since. Cloning shares the base and copies
/// the overlay.
#[derive(Clone)]
pub struct Repository {
    /// The commit this generation reflects (0 outside the MVCC store).
    seq: u64,
    base: Arc<PackStore>,
    overlay: Overlay,
    /// Live entries: base rows not shadowed, plus live overlay values.
    len: usize,
}

impl std::fmt::Debug for Repository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Repository")
            .field("seq", &self.seq)
            .field("len", &self.len)
            .field("base", &self.base)
            .field("overlay", &self.overlay.len())
            .finish()
    }
}

impl From<PackStore> for Repository {
    fn from(pack: PackStore) -> Repository {
        Repository::over(Arc::new(pack), 0, Overlay::new())
    }
}

impl Default for Repository {
    fn default() -> Repository {
        Repository::new()
    }
}

impl Repository {
    /// Creates an empty repository: a base with no rows and no file.
    pub fn new() -> Repository {
        Repository::from(PackStore::empty())
    }

    /// Opens a packed repository written by [`store::pack::write_pack`].
    /// Only the pack's header and index sections are read here; the
    /// entry payloads stay on disk until first access.
    pub fn open_pack(path: &Path) -> Result<Repository, StoreError> {
        PackStore::open(path).map(Repository::from)
    }

    /// `base` with `overlay` over it, as of commit `seq`.
    pub(crate) fn over(base: Arc<PackStore>, seq: u64, overlay: Overlay) -> Repository {
        let mut len = base.len();
        for (&id, (_, live)) in &overlay {
            match (live.is_some(), base.search(id).is_ok()) {
                (true, false) => len += 1,
                (false, true) => len -= 1,
                _ => {}
            }
        }
        Repository {
            seq,
            base,
            overlay,
            len,
        }
    }

    /// Sets `id` to `live` (`None` removes it) in the overlay, as
    /// committed at `seq`.
    pub(crate) fn put(&mut self, seq: u64, id: usize, live: Option<Live>) {
        match (self.contains(id), live.is_some()) {
            (false, true) => self.len += 1,
            (true, false) => self.len -= 1,
            _ => {}
        }
        self.overlay.insert(id, (seq, live));
    }

    /// The generation one commit after this one: same base, `id` set to
    /// `live` at `seq`.
    pub(crate) fn next(&self, seq: u64, id: usize, live: Option<Live>) -> Repository {
        let mut next = self.clone();
        next.seq = seq;
        next.put(seq, id, live);
        next
    }

    fn put_entry(&mut self, entry: Entry) {
        let id = entry.id;
        let live = Live {
            entry: Arc::new(entry),
            hash: None,
        };
        self.put(self.seq, id, Some(live));
    }

    /// One past every id this repository has held, live or removed: a
    /// removal leaves a tombstone in the overlay, so the high-water mark
    /// survives it.
    pub(crate) fn next_id(&self) -> usize {
        let over = self.overlay.last_key_value().map_or(0, |(&id, _)| id + 1);
        over.max(self.base.next_id())
    }

    /// The commit sequence number this generation reflects: 0 for a
    /// repository outside the MVCC store.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Inserts a hypergraph; returns its id (one past every id this
    /// repository has held, so ids are never reused after removals).
    pub fn insert(
        &mut self,
        hypergraph: Hypergraph,
        collection: impl Into<String>,
        class: impl Into<String>,
    ) -> usize {
        let id = self.next_id();
        self.put_entry(Entry {
            id,
            collection: collection.into(),
            class: class.into(),
            hypergraph,
            analysis: None,
        });
        id
    }

    /// Inserts a fully formed entry under its own id, which must be
    /// greater than every id this repository has held. Used by
    /// [`store::tree::import`], where the manifest assigns the ids.
    pub fn insert_entry(&mut self, entry: Entry) -> Result<(), StoreError> {
        let next = self.next_id();
        if entry.id < next {
            return Err(StoreError::Corrupt(format!(
                "entry id {} not after {}",
                entry.id,
                next - 1
            )));
        }
        self.put_entry(entry);
        Ok(())
    }

    /// Replaces the entry with id `id` (the id is kept; collection,
    /// class, hypergraph, and analysis are swapped).
    pub fn replace(&mut self, id: usize, entry: Entry) -> Result<(), StoreError> {
        if !self.contains(id) {
            return Err(StoreError::NoSuchEntry { id });
        }
        self.put_entry(Entry { id, ..entry });
        Ok(())
    }

    /// Removes the entry with id `id`. Later ids keep their values —
    /// the id sequence simply becomes sparse.
    pub fn remove(&mut self, id: usize) -> Result<Entry, StoreError> {
        let removed = self
            .try_get(id)?
            .ok_or(StoreError::NoSuchEntry { id })?
            .clone();
        self.put(self.seq, id, None);
        Ok(removed)
    }

    /// Attaches an analysis record to an entry.
    ///
    /// # Panics
    /// Panics when `id` is not present, or when its base row fails to
    /// hydrate.
    pub fn set_analysis(&mut self, id: usize, record: AnalysisRecord) {
        if let Some((_, Some(live))) = self.overlay.get_mut(&id) {
            Arc::make_mut(&mut live.entry).analysis = Some(record);
            return;
        }
        let mut entry = self.entry(id).clone();
        entry.analysis = Some(record);
        self.put_entry(entry);
    }

    /// The base merged with the overlay in id order: the base rows
    /// between two overlay keys go out as one run (`run` walks them),
    /// the base row an overlay key shadows is skipped, and a live
    /// overlay entry goes out through `over`. Each overlay key costs one
    /// base search; a base row costs nothing beyond its run's `next`.
    fn merged<'a, I: Iterator + 'a>(
        &'a self,
        run: impl Fn(Range<usize>) -> I + 'a,
        over: impl Fn(&'a Arc<Entry>) -> I::Item + 'a,
    ) -> impl Iterator<Item = I::Item> + 'a
    where
        I::Item: 'a,
    {
        let base = &*self.base;
        let mut keys = self.overlay.iter();
        let mut rows = run(0..0);
        let mut held = None;
        let mut next_row = 0;
        std::iter::from_fn(move || loop {
            if let Some(item) = rows.next() {
                return Some(item);
            }
            if let Some(item) = held.take() {
                return Some(item);
            }
            let (end, resume) = match keys.next() {
                Some((&id, (_, live))) => {
                    held = live.as_ref().map(|l| over(&l.entry));
                    match base.search(id) {
                        Ok(row) => (row, row + 1), // shadowed by the overlay
                        Err(row) => (row, row),
                    }
                }
                None if next_row < base.len() => (base.len(), base.len()),
                None => return None,
            };
            rows = run(next_row..end);
            next_row = resume;
        })
    }

    /// Every live entry as a pack-writer record, in id order: base rows
    /// carried by their bytes, never hydrated; overlay entries shared.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        let base = &*self.base;
        self.merged(
            move |rows| rows.map(move |row| Record::Carried(base, row)),
            Record::Shared,
        )
    }

    /// All entries, in id order. This hydrates every base row (it is the
    /// full-export path behind [`store::tree::export`]).
    ///
    /// # Panics
    /// Panics when a base row fails to hydrate.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        let base = &*self.base;
        self.merged(
            move |rows| {
                rows.map(move |row| {
                    base.hydrate_row(row)
                        .unwrap_or_else(|e| panic!("paged repository read failed: {e}"))
                })
            },
            |e| &**e,
        )
    }

    /// The metadata of every live entry, in id order — no hydration.
    pub fn metas(&self) -> impl Iterator<Item = EntryMeta<'_>> {
        let base = &*self.base;
        self.merged(move |rows| base.metas_at(rows), |e| EntryMeta::of(e))
    }

    /// A single entry.
    ///
    /// # Panics
    /// Panics when `id` is absent (use [`Repository::get`] for a
    /// fallible lookup) or when its base row fails to hydrate (use
    /// [`Repository::try_get`] to observe the [`StoreError`]).
    pub fn entry(&self, id: usize) -> &Entry {
        self.get(id)
            .unwrap_or_else(|| panic!("no entry with id {id}"))
    }

    /// A single entry, or `None` when `id` is absent.
    ///
    /// # Panics
    /// Panics when its base row fails to hydrate (I/O error or pack
    /// corruption); [`Repository::try_get`] surfaces that as a
    /// [`StoreError`] instead.
    pub fn get(&self, id: usize) -> Option<&Entry> {
        self.try_get(id)
            .unwrap_or_else(|e| panic!("paged repository read failed: {e}"))
    }

    /// A single entry, `Ok(None)` when `id` is absent, or the
    /// [`StoreError`] its base row hit while hydrating (bad page
    /// checksum, I/O failure, unparsable payload).
    pub fn try_get(&self, id: usize) -> Result<Option<&Entry>, StoreError> {
        match self.overlay.get(&id) {
            Some((_, live)) => Ok(live.as_ref().map(|l| &*l.entry)),
            None => match self.base.search(id) {
                Ok(row) => self.base.hydrate_row(row).map(Some),
                Err(_) => Ok(None),
            },
        }
    }

    /// Whether an entry with id `id` is live — no hydration.
    pub fn contains(&self, id: usize) -> bool {
        match self.overlay.get(&id) {
            Some((_, live)) => live.is_some(),
            None => self.base.search(id).is_ok(),
        }
    }

    /// The content hash (FNV-1a 64 of the canonical unnamed `.hg`
    /// serialization) of entry `id`, or `None` when the id is absent. A
    /// base row answers from the pack's meta index without hydrating.
    pub fn content_hash(&self, id: usize) -> Option<u64> {
        match self.overlay.get(&id) {
            Some((_, live)) => live.as_ref().map(Live::hash),
            None => self
                .base
                .search(id)
                .ok()
                .map(|row| self.base.content_hash_at_row(row)),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries matching a filter. Filter conditions are evaluated
    /// against the metadata index, so only the entries that match are
    /// hydrated.
    pub fn select<'a>(&'a self, filter: &'a Filter) -> impl Iterator<Item = &'a Entry> {
        self.metas()
            .filter(move |m| filter.matches_meta(m))
            .map(move |m| self.entry(m.id))
    }

    /// Keyset pagination: at most `limit` filtered entries with id
    /// strictly greater than `after`, in ascending id order, plus the
    /// total match count — the repository-side contract behind the
    /// `/v1/hypergraphs` cursor paging. Unlike an offset, a keyset resume
    /// point stays stable under concurrent appends and never re-scans
    /// skipped rows to find its start. The scan runs over the metadata
    /// index and only the returned page is hydrated.
    ///
    /// # Panics
    /// Panics when a returned entry fails to hydrate;
    /// [`Repository::try_select_after`] surfaces that as a [`StoreError`].
    pub fn select_after<'a>(
        &'a self,
        filter: &Filter,
        after: Option<usize>,
        limit: usize,
    ) -> KeysetPage<'a> {
        self.try_select_after(filter, after, limit)
            .unwrap_or_else(|e| panic!("paged repository read failed: {e}"))
    }

    /// Fallible [`Repository::select_after`]: a hydration failure becomes
    /// a [`StoreError`] instead of a panic.
    pub fn try_select_after<'a>(
        &'a self,
        filter: &Filter,
        after: Option<usize>,
        limit: usize,
    ) -> Result<KeysetPage<'a>, StoreError> {
        let mut total = 0usize;
        let mut ids: Vec<usize> = Vec::new();
        let mut has_more = false;
        for meta in self.metas() {
            if !filter.matches_meta(&meta) {
                continue;
            }
            total += 1;
            if after.is_some_and(|a| meta.id <= a) {
                continue;
            }
            if ids.len() < limit {
                ids.push(meta.id);
            } else {
                has_more = true;
            }
        }
        let next_after = if has_more { ids.last().copied() } else { None };
        let entries = ids
            .iter()
            .map(|&id| {
                self.try_get(id)
                    .map(|e| e.expect("id came from the metadata scan"))
            })
            .collect::<Result<_, _>>()?;
        Ok(KeysetPage {
            entries,
            total,
            next_after,
        })
    }
}

/// One keyset page of filtered entries (see [`Repository::select_after`]).
#[derive(Debug)]
pub struct KeysetPage<'a> {
    /// The entries on this page, in ascending id order.
    pub entries: Vec<&'a Entry>,
    /// Total number of entries matching the filter (across all pages).
    pub total: usize,
    /// Resume point for the next page (`None` when this is the last).
    pub next_after: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    #[test]
    fn insert_and_retrieve() {
        let mut repo = Repository::new();
        let id = repo.insert(triangle(), "TPC-H", "CQ Application");
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.entry(id).collection, "TPC-H");
        assert!(repo.entry(id).analysis.is_none());
        assert!(!repo.is_empty());
    }

    #[test]
    fn get_is_fallible_entry() {
        let mut repo = Repository::new();
        let id = repo.insert(triangle(), "TPC-H", "CQ Application");
        assert!(repo.get(id).is_some());
        assert!(repo.get(id + 1).is_none());
        assert!(matches!(repo.try_get(id + 1), Ok(None)));
    }

    #[test]
    fn meta_mirrors_entry() {
        let mut repo = Repository::new();
        let id = repo.insert(triangle(), "TPC-H", "CQ Application");
        let m = repo.metas().next().unwrap();
        assert_eq!(m.id, id);
        assert_eq!(m.collection, "TPC-H");
        assert_eq!(m.edges, 3);
        assert_eq!(m.vertices, 3);
        assert_eq!(m.arity, 2);
        assert!(m.analysis.is_none());
        assert_eq!(repo.metas().count(), 1);
    }

    #[test]
    fn select_after_pages_by_keyset() {
        let mut repo = Repository::new();
        for i in 0..10 {
            let coll = if i % 2 == 0 { "SPARQL" } else { "TPC-H" };
            repo.insert(triangle(), coll, "CQ Application");
        }
        let f = Filter::new().collection("SPARQL"); // ids 0,2,4,6,8
        let first = repo.select_after(&f, None, 2);
        assert_eq!(first.total, 5);
        assert_eq!(
            first.entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(first.next_after, Some(2));
        let second = repo.select_after(&f, first.next_after, 2);
        assert_eq!(
            second.entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![4, 6]
        );
        let last = repo.select_after(&f, second.next_after, 2);
        assert_eq!(
            last.entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![8]
        );
        assert_eq!(last.next_after, None, "exhausted pages end the cursor");
        // A page that exactly drains the matches also ends the cursor.
        let exact = repo.select_after(&f, Some(6), 1);
        assert_eq!(exact.entries.len(), 1);
        assert_eq!(exact.next_after, None);
        // Resuming past the end yields an empty page but the true total.
        let empty = repo.select_after(&f, Some(99), 3);
        assert!(empty.entries.is_empty());
        assert_eq!(empty.total, 5);
        assert_eq!(empty.next_after, None);
    }

    #[test]
    fn remove_leaves_sparse_ids_and_insert_never_reuses_them() {
        let mut repo = Repository::new();
        for _ in 0..4 {
            repo.insert(triangle(), "SPARQL", "CQ Application");
        }
        let removed = repo.remove(1).unwrap();
        assert_eq!(removed.id, 1);
        assert_eq!(repo.len(), 3);
        assert!(repo.get(1).is_none());
        assert_eq!(
            repo.metas().map(|m| m.id).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        // Fresh ids continue past the high-water mark, never refilling.
        assert_eq!(repo.insert(triangle(), "SPARQL", "CQ Application"), 4);
        assert!(matches!(
            repo.remove(1),
            Err(StoreError::NoSuchEntry { id: 1 })
        ));
        // Keyset paging walks the sparse sequence in order.
        let page = repo.select_after(&Filter::new(), Some(0), 2);
        assert_eq!(
            page.entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        // Removing the highest id does not lower the high-water mark.
        repo.remove(4).unwrap();
        assert_eq!(repo.insert(triangle(), "SPARQL", "CQ Application"), 5);
        assert_eq!(
            repo.metas().map(|m| m.id).collect::<Vec<_>>(),
            vec![0, 2, 3, 5]
        );
    }

    #[test]
    fn replace_swaps_payload_in_place() {
        let mut repo = Repository::new();
        let id = repo.insert(triangle(), "SPARQL", "CQ Application");
        repo.insert(triangle(), "TPC-H", "CQ Application");
        let replacement = Entry {
            id: 999, // overwritten by replace
            collection: "LUBM".to_string(),
            class: "CQ Application".to_string(),
            hypergraph: hypergraph_from_edges(&[("e", &["x", "y"])]),
            analysis: None,
        };
        repo.replace(id, replacement).unwrap();
        let e = repo.entry(id);
        assert_eq!(e.id, id);
        assert_eq!(e.collection, "LUBM");
        assert_eq!(e.hypergraph.num_edges(), 1);
        assert!(matches!(
            repo.replace(
                7,
                Entry {
                    id: 7,
                    collection: String::new(),
                    class: String::new(),
                    hypergraph: triangle(),
                    analysis: None,
                }
            ),
            Err(StoreError::NoSuchEntry { id: 7 })
        ));
    }

    #[test]
    fn insert_entry_requires_ascending_ids() {
        let mut repo = Repository::new();
        let mk = |id| Entry {
            id,
            collection: "SPARQL".to_string(),
            class: "CQ Application".to_string(),
            hypergraph: triangle(),
            analysis: None,
        };
        repo.insert_entry(mk(3)).unwrap();
        repo.insert_entry(mk(7)).unwrap();
        assert!(repo.insert_entry(mk(7)).is_err());
        assert!(repo.insert_entry(mk(2)).is_err());
        assert_eq!(repo.metas().map(|m| m.id).collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(repo.insert(triangle(), "SPARQL", "CQ Application"), 8);
    }

    #[test]
    fn select_by_class() {
        let mut repo = Repository::new();
        repo.insert(triangle(), "TPC-H", "CQ Application");
        repo.insert(triangle(), "xcsp", "CSP Random");
        let f = Filter::new().class("CSP Random");
        let hits: Vec<_> = repo.select(&f).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].class, "CSP Random");
    }
}
