//! The paged single-file repository format (`repo.pack`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (88 bytes)                                            │
//! │   magic "HBPACK1\n" · version · page_size · entry_count      │
//! │   data_len · (offset,len) of page table / meta / keyset      │
//! │   header checksum (FNV-1a 64)                                │
//! ├──────────────────────────────────────────────────────────────┤
//! │ data region: entry records, back to back                     │
//! │   record = name · .hg payload (DetKDecomp text)              │
//! │   read in fixed-size pages; each page checksummed            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ page table: one FNV-1a 64 checksum per data page             │
//! ├──────────────────────────────────────────────────────────────┤
//! │ meta section: per entry — id, record (offset,len),           │
//! │   collection, class, vertex/edge/arity counts, content       │
//! │   hash (FNV-1a 64 of the canonical .hg payload), analysis    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ keyset index: entry ids, sorted ascending                    │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Entry ids are strictly ascending but need not be dense: a pack
//! written from a repository that saw removals simply has gaps, and
//! id→row lookups binary-search the keyset.
//!
//! [`PackStore::open`] reads the header and the three index sections
//! (small — no `.hg` payload is parsed), validates their checksums, and
//! bounds-checks every record against the data region, so truncation
//! and a tampered index surface at open as named [`StoreError`]s.
//! Entry payloads hydrate lazily: the first access reads exactly the
//! pages covering that record, verifies their checksums against the
//! page table, parses the payload, and caches the [`Entry`] for the
//! repository's lifetime — and beyond it: slots hold `Arc<Entry>`, and a
//! pack folded from this one (`Record::Carried`) adopts them, so an
//! entry is parsed once per process, not once per checkpoint.
//!
//! The meta section doubles as the filter index ([`EntryMeta`]), and
//! the keyset index orders ids for `select_after` cursor paging — both
//! live in memory after open, so filtered scans and aggregates never
//! touch a data page.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use hyperbench_core::format::{parse_hg_named, to_hg_unnamed};
use hyperbench_core::hash::store_fnv64;

use crate::analysis::AnalysisRecord;
use crate::{Entry, EntryMeta, Repository};

use super::codec::{self, Reader};
use super::StoreError;

/// File magic: identifies a HyperBench pack.
const MAGIC: [u8; 8] = *b"HBPACK1\n";
/// Format version written by [`write_pack`]. Version 2 added the
/// per-entry content hash to the meta section and allowed sparse
/// (strictly ascending, non-dense) id sequences.
const VERSION: u32 = 2;
/// Fixed header length in bytes.
const HEADER_LEN: u64 = 88;
/// Default data page size. 4 KiB aligns with common filesystem blocks;
/// small enough that a single-entry hydration reads little more than
/// the record itself.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;
/// Smallest accepted page size (checksum granularity becomes absurd
/// below this, and a zero page size would divide by zero).
const MIN_PAGE_SIZE: u32 = 64;

/// One decoded row of the meta section.
#[derive(Debug)]
struct MetaRow {
    id: usize,
    rec_off: u64,
    rec_len: u64,
    collection: String,
    class: String,
    vertices: usize,
    edges: usize,
    arity: usize,
    content_hash: u64,
    analysis: Option<AnalysisRecord>,
}

/// An open pack file: indexes resident, payloads on disk, hydrated
/// entries cached per slot.
pub struct PackStore {
    file: Mutex<File>,
    page_size: u64,
    data_len: u64,
    page_sums: Vec<u64>,
    metas: Vec<MetaRow>,
    /// Sorted ascending; backs keyset-cursor resume ordering.
    keyset: Vec<u64>,
    slots: Vec<OnceLock<Arc<Entry>>>,
}

impl std::fmt::Debug for PackStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackStore")
            .field("entries", &self.metas.len())
            .field("page_size", &self.page_size)
            .field("data_len", &self.data_len)
            .finish()
    }
}

/// Writes `repo` as a pack file at `path` with the default page size.
pub fn write_pack(repo: &Repository, path: &Path) -> Result<(), StoreError> {
    write_pack_with(repo, path, DEFAULT_PAGE_SIZE)
}

/// Writes `repo` as a pack file at `path` with an explicit page size
/// (tests use tiny pages to exercise multi-page records).
pub fn write_pack_with(repo: &Repository, path: &Path, page_size: u32) -> Result<(), StoreError> {
    write_records(repo.records(), path, page_size)
}

/// The content hash a pack stores per entry: FNV-1a 64 over the
/// canonical unnamed `.hg` serialization, so two submissions that parse
/// to the same hypergraph hash identically regardless of whitespace or
/// edge naming in the source text.
pub fn content_hash_of(h: &hyperbench_core::Hypergraph) -> u64 {
    store_fnv64(to_hg_unnamed(h).as_bytes())
}

/// Writes any ascending-id entry sequence as a pack file: the
/// all-`Record::Entry` case of `write_records`.
pub fn write_pack_entries<'a>(
    entries: impl Iterator<Item = &'a Entry>,
    path: &Path,
    page_size: u32,
) -> Result<(), StoreError> {
    write_records(entries.map(Record::Entry), path, page_size)
}

/// One record of the ascending stream [`write_records`] turns into a
/// pack.
pub(crate) enum Record<'a> {
    /// Row `.1` of an open pack, carried verbatim: its meta fields,
    /// stored content hash and analysis are copied, and its record
    /// bytes are read from that pack's data region — every source page
    /// verified against its page table before a byte of it is reused,
    /// so a rotten page fails the write with
    /// [`StoreError::BadPageChecksum`] instead of being laundered under
    /// a fresh checksum. Nothing is parsed.
    Carried(&'a PackStore, usize),
    /// A resident entry, serialized.
    Entry(&'a Entry),
    /// A shared resident entry: serialized like [`Record::Entry`], and
    /// handed to the written pack's slot by [`PackStore::adopt`].
    Shared(&'a Arc<Entry>),
}

impl Record<'_> {
    /// The id of the entry this record writes.
    pub(crate) fn id(&self) -> usize {
        match self {
            Record::Carried(pack, row) => pack.metas[*row].id,
            Record::Entry(e) => e.id,
            Record::Shared(e) => e.id,
        }
    }
}

/// Writes an ascending-id record stream as a pack file — the one pack
/// writer. The data region is streamed page by page (one page resident,
/// never the whole region); only the index sections are built in
/// memory.
///
/// The file is written under a temp name and renamed, so a crash
/// mid-write never leaves a half-written pack under the final name. The
/// temp file is fsynced *before* the rename and the directory *after*
/// it: callers (the MVCC checkpointer in particular) durably discard
/// the WAL records this pack folds in as soon as we return, so a power
/// loss must not be able to surface an old or torn pack.
pub(crate) fn write_records<'a>(
    records: impl Iterator<Item = Record<'a>>,
    path: &Path,
    page_size: u32,
) -> Result<(), StoreError> {
    if page_size < MIN_PAGE_SIZE {
        return Err(StoreError::Corrupt(format!(
            "page size {page_size} below the minimum of {MIN_PAGE_SIZE}"
        )));
    }
    let tmp = path.with_extension("pack.tmp");
    let written = PackWriter::create(&tmp, page_size).and_then(|mut w| {
        let mut pages: Option<PageReader<'_>> = None;
        let mut record = Vec::new();
        for r in records {
            record.clear();
            match r {
                Record::Carried(pack, row) => {
                    let m = &pack.metas[row];
                    let pages = match &mut pages {
                        Some(p) if std::ptr::eq(p.pack, pack) => p,
                        other => other.insert(PageReader::new(pack)),
                    };
                    pages.read(m.rec_off, m.rec_len, &mut record)?;
                    w.push(pack.meta_at(row), m.content_hash, &record)?;
                }
                Record::Entry(e) => w.push_entry(e, &mut record)?,
                Record::Shared(e) => w.push_entry(e, &mut record)?,
            }
        }
        w.finish()
    });
    let renamed = written.and_then(|()| {
        std::fs::rename(&tmp, path)?;
        Ok(super::sync_parent_dir(path)?)
    });
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// The streaming half of [`write_records`]: data pages go to the file
/// as they fill, the page table and index sections wait for
/// [`PackWriter::finish`], which also goes back to write the header.
struct PackWriter {
    file: BufWriter<File>,
    page_size: u32,
    /// The data page being filled.
    page: Vec<u8>,
    data_len: u64,
    page_sums: Vec<u64>,
    meta: Vec<u8>,
    keyset: Vec<u8>,
    count: u64,
    last_id: Option<usize>,
}

impl PackWriter {
    fn create(tmp: &Path, page_size: u32) -> Result<PackWriter, StoreError> {
        let mut file = BufWriter::with_capacity(1 << 20, File::create(tmp)?);
        // The header needs lengths known only at the end.
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(PackWriter {
            file,
            page_size,
            page: Vec::with_capacity(page_size as usize),
            data_len: 0,
            page_sums: Vec::new(),
            meta: Vec::new(),
            keyset: Vec::new(),
            count: 0,
            last_id: None,
        })
    }

    /// Serializes a resident entry into `record` and appends it.
    fn push_entry(&mut self, e: &Entry, record: &mut Vec<u8>) -> Result<(), StoreError> {
        let hg_text = to_hg_unnamed(&e.hypergraph);
        codec::put_str(record, e.hypergraph.name());
        codec::put_str(record, &hg_text);
        self.push(EntryMeta::of(e), store_fnv64(hg_text.as_bytes()), record)
    }

    /// Appends one entry: its record bytes to the data region, its row
    /// to the meta section and its id to the keyset.
    fn push(
        &mut self,
        m: EntryMeta<'_>,
        content_hash: u64,
        record: &[u8],
    ) -> Result<(), StoreError> {
        if let Some(last) = self.last_id.filter(|&last| m.id <= last) {
            return Err(StoreError::Corrupt(format!(
                "pack writer: entry id {} not after {last}",
                m.id
            )));
        }
        self.last_id = Some(m.id);
        codec::put_u64(&mut self.meta, m.id as u64);
        codec::put_u64(&mut self.meta, self.data_len);
        codec::put_u64(&mut self.meta, record.len() as u64);
        codec::put_str(&mut self.meta, m.collection);
        codec::put_str(&mut self.meta, m.class);
        codec::put_u64(&mut self.meta, m.vertices as u64);
        codec::put_u64(&mut self.meta, m.edges as u64);
        codec::put_u64(&mut self.meta, m.arity as u64);
        codec::put_u64(&mut self.meta, content_hash);
        match m.analysis {
            Some(rec) => {
                codec::put_u8(&mut self.meta, 1);
                codec::put_analysis(&mut self.meta, rec);
            }
            None => codec::put_u8(&mut self.meta, 0),
        }
        codec::put_u64(&mut self.keyset, m.id as u64);
        self.count += 1;
        self.data_len += record.len() as u64;
        let mut rest = record;
        while !rest.is_empty() {
            let room = self.page_size as usize - self.page.len();
            let (head, tail) = rest.split_at(room.min(rest.len()));
            self.page.extend_from_slice(head);
            rest = tail;
            if self.page.len() == self.page_size as usize {
                self.flush_page()?;
            }
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), StoreError> {
        self.page_sums.push(store_fnv64(&self.page));
        self.file.write_all(&self.page)?;
        self.page.clear();
        Ok(())
    }

    /// Writes the last partial page, the three checksummed sections and
    /// the header, then makes the file durable.
    fn finish(mut self) -> Result<(), StoreError> {
        if !self.page.is_empty() {
            self.flush_page()?;
        }
        let mut ptab = Vec::with_capacity(8 * self.page_sums.len() + 16);
        codec::put_u64(&mut ptab, self.page_sums.len() as u64);
        for &sum in &self.page_sums {
            codec::put_u64(&mut ptab, sum);
        }
        let (mut meta, mut keyset) = (self.meta, self.keyset);
        for section in [&mut ptab, &mut meta, &mut keyset] {
            let sum = store_fnv64(section);
            codec::put_u64(section, sum);
            self.file.write_all(section)?;
        }
        let ptab_off = HEADER_LEN + self.data_len;
        let meta_off = ptab_off + ptab.len() as u64;
        let keyset_off = meta_off + meta.len() as u64;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        codec::put_u32(&mut header, VERSION);
        codec::put_u32(&mut header, self.page_size);
        codec::put_u64(&mut header, self.count);
        codec::put_u64(&mut header, self.data_len);
        codec::put_u64(&mut header, ptab_off);
        codec::put_u64(&mut header, ptab.len() as u64);
        codec::put_u64(&mut header, meta_off);
        codec::put_u64(&mut header, meta.len() as u64);
        codec::put_u64(&mut header, keyset_off);
        codec::put_u64(&mut header, keyset.len() as u64);
        let sum = store_fnv64(&header);
        codec::put_u64(&mut header, sum);
        debug_assert_eq!(header.len() as u64, HEADER_LEN);
        let mut file = self.file.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(())
    }
}

/// Reads a checksummed section (body + trailing FNV-1a 64) and returns
/// the body with the checksum verified and stripped.
fn read_section(
    file: &Mutex<File>,
    off: u64,
    len: u64,
    what: &'static str,
) -> Result<Vec<u8>, StoreError> {
    if len < 8 {
        return Err(StoreError::Corrupt(format!(
            "{what}: section of {len} bytes cannot hold its checksum"
        )));
    }
    let mut bytes = vec![0u8; len as usize];
    read_at(file, off, &mut bytes)?;
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
    crate::metrics::metrics().pack_checksum_reads.inc();
    if store_fnv64(&bytes[..body_len]) != stored {
        return Err(StoreError::Corrupt(format!("{what}: checksum mismatch")));
    }
    bytes.truncate(body_len);
    Ok(bytes)
}

/// Fills `buf` from the pack file at `off`.
fn read_at(file: &Mutex<File>, off: u64, buf: &mut [u8]) -> Result<(), StoreError> {
    let file = file.lock().expect("pack file lock");
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, off)?;
    }
    #[cfg(not(unix))]
    {
        let mut file = file;
        (*file).seek(SeekFrom::Start(off))?;
        (*file).read_exact(buf)?;
    }
    Ok(())
}

/// Reads byte ranges of a pack's data region page by page, verifying
/// each page's checksum against the page table before any byte of it is
/// used. The last verified page stays resident, so a sweep over
/// back-to-back records reads and verifies every page once.
struct PageReader<'a> {
    pack: &'a PackStore,
    /// The page number `page` holds, once one was read and verified.
    resident: Option<usize>,
    page: Vec<u8>,
}

impl<'a> PageReader<'a> {
    fn new(pack: &'a PackStore) -> PageReader<'a> {
        PageReader {
            pack,
            resident: None,
            page: Vec::new(),
        }
    }

    /// Appends the logical byte range `[off, off+len)` of the data
    /// region to `out`.
    fn read(&mut self, off: u64, len: u64, out: &mut Vec<u8>) -> Result<(), StoreError> {
        if len == 0 {
            return Ok(());
        }
        let pack = self.pack;
        let first_page = (off / pack.page_size) as usize;
        let last_page = ((off + len - 1) / pack.page_size) as usize;
        out.reserve(len as usize);
        for page in first_page..=last_page {
            let page_start = page as u64 * pack.page_size;
            let page_len = (pack.data_len - page_start).min(pack.page_size) as usize;
            if self.resident != Some(page) {
                hyperbench_fault::fail_point!("pack.read_page", |_msg: String| Err(
                    StoreError::BadPageChecksum { page }
                ));
                self.resident = None;
                self.page.resize(page_len, 0);
                read_at(&pack.file, HEADER_LEN + page_start, &mut self.page)?;
                let m = crate::metrics::metrics();
                m.pack_page_hydrations.inc();
                m.pack_checksum_reads.inc();
                if store_fnv64(&self.page) != pack.page_sums[page] {
                    return Err(StoreError::BadPageChecksum { page });
                }
                self.resident = Some(page);
            }
            let copy_from = off.saturating_sub(page_start) as usize;
            let copy_to = ((off + len - page_start) as usize).min(page_len);
            out.extend_from_slice(&self.page[copy_from..copy_to]);
        }
        Ok(())
    }
}

impl PackStore {
    /// Opens a pack: header + index sections only. Truncation, bad
    /// magic, checksum mismatches, and index rows pointing outside the
    /// data region all surface here as named [`StoreError`]s.
    pub fn open(path: &Path) -> Result<PackStore, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(StoreError::Truncated {
                expected: HEADER_LEN,
                actual: file_len,
            });
        }
        let mut header = vec![0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let (body, sum_bytes) = header.split_at(HEADER_LEN as usize - 8);
        let stored_sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if body[..8] != MAGIC {
            return Err(StoreError::Corrupt(format!(
                "not a pack file (bad magic {:?})",
                &body[..8]
            )));
        }
        if store_fnv64(body) != stored_sum {
            return Err(StoreError::Corrupt(
                "pack header checksum mismatch".to_string(),
            ));
        }
        let mut r = Reader::new(&body[8..], "pack header");
        let version = r.u32()?;
        if version != VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported pack version {version} (this build reads {VERSION})"
            )));
        }
        let page_size = r.u32()?;
        if page_size < MIN_PAGE_SIZE {
            return Err(StoreError::Corrupt(format!(
                "implausible page size {page_size}"
            )));
        }
        let entry_count = r.u64()? as usize;
        let data_len = r.u64()?;
        let ptab_off = r.u64()?;
        let ptab_len = r.u64()?;
        let meta_off = r.u64()?;
        let meta_len = r.u64()?;
        let keyset_off = r.u64()?;
        let keyset_len = r.u64()?;
        // Every region must lie within the file: a pack cut short by a
        // partial copy is reported as truncation, with the shortfall.
        for (off, len) in [
            (HEADER_LEN, data_len),
            (ptab_off, ptab_len),
            (meta_off, meta_len),
            (keyset_off, keyset_len),
        ] {
            let end = off.checked_add(len).ok_or_else(|| {
                StoreError::Corrupt(format!("pack section range {off}+{len} overflows"))
            })?;
            if end > file_len {
                return Err(StoreError::Truncated {
                    expected: end,
                    actual: file_len,
                });
            }
        }
        let file = Mutex::new(file);
        let ptab = read_section(&file, ptab_off, ptab_len, "pack page table")?;
        let meta = read_section(&file, meta_off, meta_len, "pack meta section")?;
        let keyset = read_section(&file, keyset_off, keyset_len, "pack keyset index")?;

        // Page table: one checksum per data page.
        let expected_pages = data_len.div_ceil(page_size as u64) as usize;
        let mut r = Reader::new(&ptab, "pack page table");
        let n_pages = r.u64()? as usize;
        if n_pages != expected_pages {
            return Err(StoreError::Corrupt(format!(
                "page table covers {n_pages} pages but the data region has {expected_pages}"
            )));
        }
        let mut page_sums = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            page_sums.push(r.u64()?);
        }

        // Meta section: ids must be strictly ascending (gaps are fine —
        // removals leave the sequence sparse), records within the data
        // region.
        let mut r = Reader::new(&meta, "pack meta section");
        let mut metas = Vec::with_capacity(entry_count);
        let mut last_id: Option<usize> = None;
        for _ in 0..entry_count {
            let id = r.u64()? as usize;
            if let Some(last) = last_id {
                if id <= last {
                    return Err(StoreError::Corrupt(format!(
                        "pack meta section: id {id} out of order (not after {last})"
                    )));
                }
            }
            last_id = Some(id);
            let rec_off = r.u64()?;
            let rec_len = r.u64()?;
            if rec_off
                .checked_add(rec_len)
                .is_none_or(|end| end > data_len)
            {
                return Err(StoreError::IndexOutOfBounds {
                    id,
                    offset: rec_off,
                    len: rec_len,
                    data_len,
                });
            }
            let collection = r.str()?;
            let class = r.str()?;
            let vertices = r.u64()? as usize;
            let edges = r.u64()? as usize;
            let arity = r.u64()? as usize;
            let content_hash = r.u64()?;
            let analysis = match r.u8()? {
                0 => None,
                1 => Some(codec::read_analysis(&mut r)?),
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "pack meta section: bad analysis tag {other} for id {id}"
                    )))
                }
            };
            metas.push(MetaRow {
                id,
                rec_off,
                rec_len,
                collection,
                class,
                vertices,
                edges,
                arity,
                content_hash,
                analysis,
            });
        }

        // Keyset index: the same ids, in the same (ascending) order.
        let mut r = Reader::new(&keyset, "pack keyset index");
        let mut keyset_ids = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            keyset_ids.push(r.u64()?);
        }
        if keyset_ids.len() != metas.len()
            || keyset_ids
                .iter()
                .zip(&metas)
                .any(|(&k, m)| k as usize != m.id)
        {
            return Err(StoreError::Corrupt(
                "pack keyset index does not match the meta section's ids".to_string(),
            ));
        }

        let slots = (0..entry_count).map(|_| OnceLock::new()).collect();
        Ok(PackStore {
            file,
            page_size: page_size as u64,
            data_len,
            page_sums,
            metas,
            keyset: keyset_ids,
            slots,
        })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.metas.len()
    }

    /// The row index of entry `id`, or `None` when the id is not in the
    /// pack (ids are ascending but possibly sparse).
    pub(crate) fn row_of(&self, id: usize) -> Option<usize> {
        self.keyset.binary_search(&(id as u64)).ok()
    }

    /// The metadata view of one entry — no disk access.
    ///
    /// # Panics
    /// Panics when `id` is not in the pack.
    pub(crate) fn meta(&self, id: usize) -> EntryMeta<'_> {
        let row = self
            .row_of(id)
            .unwrap_or_else(|| panic!("no entry with id {id}"));
        self.meta_at(row)
    }

    /// The metadata view of the entry at row index `row`.
    fn meta_at(&self, row: usize) -> EntryMeta<'_> {
        let row = &self.metas[row];
        EntryMeta {
            id: row.id,
            collection: &row.collection,
            class: &row.class,
            vertices: row.vertices,
            edges: row.edges,
            arity: row.arity,
            analysis: row.analysis.as_ref(),
        }
    }

    /// The stored content hash (FNV-1a 64 of the canonical `.hg`
    /// payload) of the entry at row `row` — no disk access.
    pub(crate) fn content_hash_at_row(&self, row: usize) -> (usize, u64) {
        let m = &self.metas[row];
        (m.id, m.content_hash)
    }

    /// The sorted keyset index: the id order every metadata scan (and
    /// therefore `select_after` cursor paging) runs in.
    pub(crate) fn keyset_ids(&self) -> std::slice::Iter<'_, u64> {
        self.keyset.iter()
    }

    /// Returns the hydrated entry at row index `row`, reading and
    /// verifying exactly the pages covering its record on first access.
    pub(crate) fn hydrate_row(&self, row: usize) -> Result<&Entry, StoreError> {
        if let Some(e) = self.slots[row].get() {
            return Ok(e);
        }
        let meta = &self.metas[row];
        let id = meta.id;
        let mut bytes = Vec::new();
        PageReader::new(self).read(meta.rec_off, meta.rec_len, &mut bytes)?;
        let mut r = Reader::new(&bytes, "pack entry record");
        let name = r.str()?;
        let hg_text = r.str()?;
        crate::metrics::metrics().pack_entries_parsed.inc();
        let hypergraph = parse_hg_named(&hg_text, &name).map_err(|e| {
            StoreError::Corrupt(format!("pack record for entry {id}: bad .hg payload: {e}"))
        })?;
        let entry = Arc::new(Entry {
            id,
            collection: meta.collection.clone(),
            class: meta.class.clone(),
            hypergraph,
            analysis: meta.analysis.clone(),
        });
        // A concurrent hydration may have won the race; either value is
        // identical, so whichever landed first is served.
        let _ = self.slots[row].set(entry);
        Ok(self.slots[row].get().expect("slot was just set"))
    }

    /// Seeds this pack's slots with what `records` — the stream this
    /// pack was written from — already holds parsed: the source pack's
    /// hydrated slot for a carried row, the entry itself for a shared
    /// one. Reads of those rows then never touch a page or the parser.
    pub(crate) fn adopt<'a>(&self, records: impl Iterator<Item = Record<'a>>) {
        for (slot, record) in self.slots.iter().zip(records) {
            let resident = match record {
                Record::Carried(pack, row) => pack.slots[row].get(),
                Record::Shared(e) => Some(e),
                Record::Entry(_) => None,
            };
            if let Some(e) = resident {
                let _ = slot.set(Arc::clone(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_instance, AnalysisConfig};
    use crate::{aggregate_stats, Filter};
    use hyperbench_core::builder::hypergraph_from_edges;
    use hyperbench_core::HypergraphBuilder;
    use std::fs;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hyperbench-pack-test-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// A mixed corpus: analyzed + unanalyzed, named + unnamed entries
    /// across two collections.
    fn corpus() -> Repository {
        let mut repo = Repository::new();
        let cfg = AnalysisConfig::default();
        for i in 0..6 {
            let h = if i % 2 == 0 {
                hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
            } else {
                hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])])
            };
            let rec = analyze_instance(&h, &cfg);
            let coll = if i % 2 == 0 { "SPARQL" } else { "TPC-H" };
            let id = repo.insert(h, coll, "CQ Application");
            repo.set_analysis(id, rec);
        }
        let mut b = HypergraphBuilder::named("csp/instance-7");
        b.add_edge("c", &["x", "y", "z"]);
        repo.insert(b.build(), "xcsp", "CSP Random");
        repo
    }

    #[test]
    fn pack_roundtrips_through_tsv_byte_identically() {
        let dir = tmpdir("roundtrip");
        let repo = corpus();
        // TSV → pack → open → TSV must reproduce the index byte for
        // byte: the pack is a serving format, TSV stays the interchange.
        let tsv1 = dir.join("tsv1");
        let tsv2 = dir.join("tsv2");
        super::super::save(&repo, &tsv1).unwrap();
        let pack = dir.join("repo.pack");
        write_pack(&repo, &pack).unwrap();
        let opened = Repository::open_pack(&pack).unwrap();
        assert!(opened.is_paged());
        super::super::save(&opened, &tsv2).unwrap();
        assert_eq!(
            fs::read(tsv1.join("index.tsv")).unwrap(),
            fs::read(tsv2.join("index.tsv")).unwrap(),
            "index.tsv changed across TSV→pack→TSV"
        );
        assert_eq!(
            fs::read(tsv1.join("00000.hg")).unwrap(),
            fs::read(tsv2.join("00000.hg")).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_backend_answers_like_memory() {
        let dir = tmpdir("equiv");
        let repo = corpus();
        let pack = dir.join("repo.pack");
        // A tiny page size forces records to span pages.
        write_pack_with(&repo, &pack, 64).unwrap();
        let paged = Repository::open_pack(&pack).unwrap();
        assert_eq!(paged.len(), repo.len());
        // Entries hydrate identically.
        for id in 0..repo.len() {
            let (a, b) = (repo.entry(id), paged.entry(id));
            assert_eq!(a.collection, b.collection);
            assert_eq!(a.class, b.class);
            assert_eq!(a.hypergraph.name(), b.hypergraph.name());
            assert_eq!(a.hypergraph.num_edges(), b.hypergraph.num_edges());
            assert_eq!(
                a.analysis.as_ref().map(|r| (r.hw_upper, r.hw_lower)),
                b.analysis.as_ref().map(|r| (r.hw_upper, r.hw_lower))
            );
        }
        // Aggregates come from the meta index without hydration.
        assert_eq!(aggregate_stats(&repo), aggregate_stats(&paged));
        // Keyset paging agrees page by page, filtered and not.
        for filter in [
            Filter::new(),
            Filter::new().collection("SPARQL"),
            Filter::new().hw_at_most(2),
            Filter::new().min_edges(3),
        ] {
            let mut after = None;
            loop {
                let a = repo.select_after(&filter, after, 2);
                let b = paged.select_after(&filter, after, 2);
                assert_eq!(
                    a.entries.iter().map(|e| e.id).collect::<Vec<_>>(),
                    b.entries.iter().map(|e| e.id).collect::<Vec<_>>()
                );
                assert_eq!(a.total, b.total);
                assert_eq!(a.next_after, b.next_after);
                after = a.next_after;
                if after.is_none() {
                    break;
                }
            }
        }
        // The metadata scan runs in keyset order: sorted, dense ids.
        assert_eq!(
            paged.metas().map(|m| m.id).collect::<Vec<_>>(),
            (0..repo.len()).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_ids_pack_and_reopen() {
        let dir = tmpdir("sparse");
        let pack = dir.join("repo.pack");
        let mut repo = corpus();
        repo.remove(2).unwrap();
        repo.remove(5).unwrap();
        write_pack(&repo, &pack).unwrap();
        let paged = Repository::open_pack(&pack).unwrap();
        assert_eq!(paged.len(), repo.len());
        assert_eq!(
            paged.metas().map(|m| m.id).collect::<Vec<_>>(),
            vec![0, 1, 3, 4, 6],
            "gaps survive the pack roundtrip"
        );
        assert!(paged.get(2).is_none(), "removed id stays absent");
        assert_eq!(paged.entry(3).collection, repo.entry(3).collection);
        // Content hashes ride the meta index (no hydration needed) and
        // agree with the memory backend's computed ones.
        for id in [0usize, 1, 3, 4, 6] {
            assert_eq!(paged.content_hash(id), repo.content_hash(id), "id {id}");
        }
        assert_eq!(
            paged.content_hash(0),
            Some(content_hash_of(&repo.entry(0).hypergraph))
        );
        assert!(paged.content_hash(2).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_repository_is_read_only() {
        let dir = tmpdir("readonly");
        let pack = dir.join("repo.pack");
        write_pack(&corpus(), &pack).unwrap();
        let mut paged = Repository::open_pack(&pack).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            paged.insert(
                hypergraph_from_edges(&[("e", &["a", "b"])]),
                "X",
                "CQ Application",
            )
        }));
        assert!(result.is_err(), "insert on a packed repository must panic");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_pack_is_a_named_error() {
        let dir = tmpdir("truncated");
        let pack = dir.join("repo.pack");
        write_pack(&corpus(), &pack).unwrap();
        let bytes = fs::read(&pack).unwrap();
        // Shorter than the header.
        fs::write(&pack, &bytes[..40]).unwrap();
        match Repository::open_pack(&pack) {
            Err(StoreError::Truncated { expected, actual }) => {
                assert_eq!(expected, HEADER_LEN);
                assert_eq!(actual, 40);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Header intact but sections cut off.
        fs::write(&pack, &bytes[..bytes.len() - 10]).unwrap();
        match Repository::open_pack(&pack) {
            Err(StoreError::Truncated { expected, actual }) => {
                assert_eq!(expected, bytes.len() as u64);
                assert_eq!(actual, bytes.len() as u64 - 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_data_byte_is_a_bad_page_checksum() {
        let dir = tmpdir("badpage");
        let pack = dir.join("repo.pack");
        write_pack(&corpus(), &pack).unwrap();
        let mut bytes = fs::read(&pack).unwrap();
        // Flip one byte inside entry 0's record (data region starts
        // right after the header).
        bytes[HEADER_LEN as usize + 10] ^= 0xff;
        fs::write(&pack, &bytes).unwrap();
        // Opening succeeds — the index sections are intact — but the
        // first hydration of the damaged page reports it by number.
        let paged = Repository::open_pack(&pack).unwrap();
        match paged.try_get(0) {
            Err(StoreError::BadPageChecksum { page: 0 }) => {}
            other => panic!("expected BadPageChecksum for page 0, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_pointing_past_eof_is_a_named_error() {
        let dir = tmpdir("oob");
        let pack = dir.join("repo.pack");
        write_pack(&corpus(), &pack).unwrap();
        let mut bytes = fs::read(&pack).unwrap();
        // Locate the meta section from the header (offsets per the
        // layout comment at the top of this module), then point entry
        // 0's record offset far past the data region and re-checksum
        // the section so only the bounds check can object.
        let meta_off = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        let meta_len = u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize;
        bytes[meta_off + 8..meta_off + 16].copy_from_slice(&u64::MAX.to_le_bytes()[..8]);
        let sum = store_fnv64(&bytes[meta_off..meta_off + meta_len - 8]);
        bytes[meta_off + meta_len - 8..meta_off + meta_len].copy_from_slice(&sum.to_le_bytes());
        fs::write(&pack, &bytes).unwrap();
        match Repository::open_pack(&pack) {
            Err(StoreError::IndexOutOfBounds { id: 0, .. }) => {}
            other => panic!("expected IndexOutOfBounds for id 0, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_and_wrong_version_are_rejected() {
        let dir = tmpdir("garbage");
        let pack = dir.join("repo.pack");
        fs::write(&pack, vec![0u8; 200]).unwrap();
        match Repository::open_pack(&pack) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("magic"), "msg: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Tampering with the header (version field) trips the header
        // checksum before anything else is believed.
        write_pack(&corpus(), &pack).unwrap();
        let mut bytes = fs::read(&pack).unwrap();
        bytes[8] ^= 0xff;
        fs::write(&pack, &bytes).unwrap();
        match Repository::open_pack(&pack) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("header checksum"), "msg: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_page_size_is_rejected_at_write() {
        let dir = tmpdir("pagesize");
        let pack = dir.join("repo.pack");
        assert!(matches!(
            write_pack_with(&corpus(), &pack, 8),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
