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
//! * persist to / load from a directory of `.hg` files plus a TSV index
//!   (the interchange format), or to a single paged, checksummed
//!   `repo.pack` file ([`store::pack`]) that opens without parsing any
//!   `.hg` payload and hydrates entries lazily, page by page.
//!
//! A [`Repository`] is backed either by memory (every entry resident,
//! mutable) or by a pack file (read-only, lazily hydrated). Both
//! backends answer the same retrieval API; the paged backend evaluates
//! filters against its in-memory metadata index and touches the pack
//! file only for the entries a query actually returns.

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

use std::ops::Range;
use std::path::Path;

use hyperbench_core::Hypergraph;

use store::pack::{self, PackStore, Record};

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

/// The lightweight per-entry metadata every backend can answer without
/// hydrating the hypergraph payload: provenance, size counters, and the
/// analysis record. This is what [`Filter`] conditions are evaluated
/// against ([`Filter::matches_meta`]) and what [`aggregate_stats`]
/// consumes, so a paged repository can run filtered scans and compute
/// `/stats` aggregates without touching a single data page.
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

/// How the entries are held.
#[derive(Debug)]
enum Backend {
    /// Every entry resident in memory; mutable.
    Memory(Vec<Entry>),
    /// A read-only paged pack file; entries hydrate lazily on first
    /// access and stay cached afterwards.
    Paged(PackStore),
}

/// A repository of hypergraphs and analyses, backed by memory or by a
/// paged on-disk pack file (see [`Repository::open_pack`]).
#[derive(Debug)]
pub struct Repository {
    backend: Backend,
}

impl From<PackStore> for Repository {
    fn from(pack: PackStore) -> Repository {
        Repository {
            backend: Backend::Paged(pack),
        }
    }
}

impl Default for Repository {
    fn default() -> Repository {
        Repository::new()
    }
}

impl Repository {
    /// Creates an empty in-memory repository.
    pub fn new() -> Repository {
        Repository {
            backend: Backend::Memory(Vec::new()),
        }
    }

    /// Opens a packed repository written by [`store::pack::write_pack`].
    /// Only the pack's header and index sections are read here; the
    /// entry payloads stay on disk until first access. The resulting
    /// repository is read-only: [`Repository::insert`] and
    /// [`Repository::set_analysis`] panic on it.
    pub fn open_pack(path: &Path) -> Result<Repository, StoreError> {
        PackStore::open(path).map(Repository::from)
    }

    /// Whether this repository is backed by a pack file (read-only).
    pub fn is_paged(&self) -> bool {
        matches!(self.backend, Backend::Paged(_))
    }

    fn memory_mut(&mut self, op: &str) -> &mut Vec<Entry> {
        match &mut self.backend {
            Backend::Memory(entries) => entries,
            Backend::Paged(_) => panic!(
                "cannot {op}: a packed repository is read-only \
                 (unpack it with store::save, mutate, then re-pack)"
            ),
        }
    }

    /// Inserts a hypergraph; returns its id (one past the largest id
    /// present, so ids stay strictly ascending even after removals).
    ///
    /// # Panics
    /// Panics on a packed (read-only) repository.
    pub fn insert(
        &mut self,
        hypergraph: Hypergraph,
        collection: impl Into<String>,
        class: impl Into<String>,
    ) -> usize {
        let entries = self.memory_mut("insert");
        let id = entries.last().map_or(0, |e| e.id + 1);
        entries.push(Entry {
            id,
            collection: collection.into(),
            class: class.into(),
            hypergraph,
            analysis: None,
        });
        id
    }

    /// Inserts a fully formed entry under its own id, which must be
    /// strictly greater than every id already present (ids are
    /// append-ordered in every backend). Used by the TSV loader and the
    /// WAL replay path, where ids are assigned by history, not by us.
    pub fn insert_entry(&mut self, entry: Entry) -> Result<(), StoreError> {
        let entries = self.memory_mut("insert entry");
        if let Some(last) = entries.last() {
            if entry.id <= last.id {
                return Err(StoreError::Corrupt(format!(
                    "entry id {} not after {}",
                    entry.id, last.id
                )));
            }
        }
        entries.push(entry);
        Ok(())
    }

    /// Replaces the entry with id `id` in place (id and position are
    /// kept; collection, class, hypergraph, and analysis are swapped).
    ///
    /// # Panics
    /// Panics on a packed (read-only) repository.
    pub fn replace(&mut self, id: usize, entry: Entry) -> Result<(), StoreError> {
        let entries = self.memory_mut("replace");
        let idx = entries
            .binary_search_by_key(&id, |e| e.id)
            .map_err(|_| StoreError::NoSuchEntry { id })?;
        entries[idx] = Entry { id, ..entry };
        Ok(())
    }

    /// Removes the entry with id `id`. Later ids keep their values —
    /// the id sequence simply becomes sparse.
    ///
    /// # Panics
    /// Panics on a packed (read-only) repository.
    pub fn remove(&mut self, id: usize) -> Result<Entry, StoreError> {
        let entries = self.memory_mut("remove");
        let idx = entries
            .binary_search_by_key(&id, |e| e.id)
            .map_err(|_| StoreError::NoSuchEntry { id })?;
        Ok(entries.remove(idx))
    }

    /// Attaches an analysis record to an entry.
    ///
    /// # Panics
    /// Panics on a packed (read-only) repository, or when `id` is not
    /// present.
    pub fn set_analysis(&mut self, id: usize, record: AnalysisRecord) {
        let entries = self.memory_mut("set analysis");
        let idx = entries
            .binary_search_by_key(&id, |e| e.id)
            .unwrap_or_else(|_| panic!("no entry with id {id}"));
        entries[idx].analysis = Some(record);
    }

    /// The row of entry `id` — rows are the scan order, ascending by
    /// id in both backends, which is the invariant the keyset cursor
    /// paging of [`Repository::select_after`] rests on — or the row it
    /// would be inserted at when absent.
    pub(crate) fn search(&self, id: usize) -> Result<usize, usize> {
        match &self.backend {
            Backend::Memory(entries) => entries.binary_search_by_key(&id, |e| e.id),
            Backend::Paged(pack) => pack.search(id),
        }
    }

    /// Rows `rows` as pack-writer records: a paged backend's rows are
    /// carried by their bytes, never hydrated.
    pub(crate) fn records_at(&self, rows: Range<usize>) -> impl Iterator<Item = Record<'_>> {
        rows.map(move |row| match &self.backend {
            Backend::Memory(entries) => Record::Entry(&entries[row]),
            Backend::Paged(pack) => Record::Carried(pack, row),
        })
    }

    /// Every entry as a pack-writer record, in id order.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        self.records_at(0..self.len())
    }

    /// All entries, in id order. On a paged repository this hydrates
    /// every entry (it is the full-export path behind [`store::save`]).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        (0..self.len()).map(move |row| match &self.backend {
            Backend::Memory(entries) => &entries[row],
            Backend::Paged(pack) => pack
                .hydrate_row(row)
                .unwrap_or_else(|e| panic!("paged repository read failed: {e}")),
        })
    }

    /// The metadata of rows `rows`, in id order: a walk of the rows,
    /// with no lookup per row.
    pub(crate) fn metas_at(&self, rows: Range<usize>) -> Metas<'_> {
        match &self.backend {
            Backend::Memory(entries) => Metas::Entries(entries[rows].iter()),
            Backend::Paged(pack) => Metas::Pack(pack.metas_at(rows)),
        }
    }

    /// The metadata of every entry, in id order — available without
    /// hydration on a paged repository.
    pub fn metas(&self) -> impl Iterator<Item = EntryMeta<'_>> {
        self.metas_at(0..self.len())
    }

    /// The metadata of one entry.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn meta(&self, id: usize) -> EntryMeta<'_> {
        match &self.backend {
            Backend::Memory(entries) => {
                let idx = entries
                    .binary_search_by_key(&id, |e| e.id)
                    .unwrap_or_else(|_| panic!("no entry with id {id}"));
                EntryMeta::of(&entries[idx])
            }
            Backend::Paged(pack) => pack.meta(id),
        }
    }

    /// A single entry.
    ///
    /// # Panics
    /// Panics when `id` is out of range (use [`Repository::get`] for a
    /// fallible lookup) or when a paged backend fails to hydrate the
    /// entry (use [`Repository::try_get`] to observe the
    /// [`StoreError`]).
    pub fn entry(&self, id: usize) -> &Entry {
        self.get(id)
            .unwrap_or_else(|| panic!("no entry with id {id}"))
    }

    /// A single entry, or `None` when `id` is out of range.
    ///
    /// # Panics
    /// Panics when a paged backend fails to hydrate the entry (I/O
    /// error or pack corruption); [`Repository::try_get`] surfaces that
    /// as a [`StoreError`] instead.
    pub fn get(&self, id: usize) -> Option<&Entry> {
        self.try_get(id)
            .unwrap_or_else(|e| panic!("paged repository read failed: {e}"))
    }

    /// A single entry, `Ok(None)` when `id` is out of range, or the
    /// [`StoreError`] a paged backend hit while hydrating (bad page
    /// checksum, I/O failure, unparsable payload).
    pub fn try_get(&self, id: usize) -> Result<Option<&Entry>, StoreError> {
        match &self.backend {
            Backend::Memory(entries) => Ok(entries
                .binary_search_by_key(&id, |e| e.id)
                .ok()
                .map(|idx| &entries[idx])),
            Backend::Paged(pack) => match pack.row_of(id) {
                Some(row) => pack.hydrate_row(row).map(Some),
                None => Ok(None),
            },
        }
    }

    /// Whether an entry with id `id` exists — no hydration on a paged
    /// backend.
    pub fn contains(&self, id: usize) -> bool {
        match &self.backend {
            Backend::Memory(entries) => entries.binary_search_by_key(&id, |e| e.id).is_ok(),
            Backend::Paged(pack) => pack.row_of(id).is_some(),
        }
    }

    /// The content hash (FNV-1a 64 of the canonical unnamed `.hg`
    /// serialization) of entry `id`, or `None` when the id is absent.
    /// A paged backend answers from its meta index without hydrating;
    /// the memory backend serializes the resident hypergraph.
    pub fn content_hash(&self, id: usize) -> Option<u64> {
        match &self.backend {
            Backend::Memory(entries) => entries
                .binary_search_by_key(&id, |e| e.id)
                .ok()
                .map(|idx| store::pack::content_hash_of(&entries[idx].hypergraph)),
            Backend::Paged(pack) => pack.row_of(id).map(|row| pack.content_hash_at_row(row)),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Memory(entries) => entries.len(),
            Backend::Paged(pack) => pack.len(),
        }
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries matching a filter. Filter conditions are evaluated
    /// against the metadata index, so a paged backend hydrates only the
    /// entries that match.
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
    /// skipped rows to find its start. On a
    /// paged backend the scan runs over the pack's metadata index and
    /// only the returned page is hydrated from disk.
    ///
    /// # Panics
    /// Panics when a paged backend fails to hydrate a returned entry;
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

    /// Fallible [`Repository::select_after`]: a paged backend's
    /// hydration failure becomes a [`StoreError`] instead of a panic.
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
        let entries = self.hydrate_ids(&ids)?;
        Ok(KeysetPage {
            entries,
            total,
            next_after,
        })
    }

    fn hydrate_ids(&self, ids: &[usize]) -> Result<Vec<&Entry>, StoreError> {
        ids.iter()
            .map(|&id| {
                self.try_get(id)
                    .map(|e| e.expect("id came from the metadata scan"))
            })
            .collect()
    }
}

/// A metadata walk over a run of rows (see [`Repository::metas_at`]).
pub(crate) enum Metas<'a> {
    /// In-memory backend: insertion order (ids ascending, possibly
    /// sparse after removals).
    Entries(std::slice::Iter<'a, Entry>),
    /// Paged backend: the pack's meta rows.
    Pack(pack::Metas<'a>),
}

impl<'a> Iterator for Metas<'a> {
    type Item = EntryMeta<'a>;

    #[inline]
    fn next(&mut self) -> Option<EntryMeta<'a>> {
        match self {
            Metas::Entries(entries) => entries.next().map(EntryMeta::of),
            Metas::Pack(rows) => rows.next(),
        }
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
        assert!(!repo.is_paged());
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
        let m = repo.meta(id);
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
