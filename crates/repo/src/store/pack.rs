//! The paged single-file repository format (`repo.pack`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (96 bytes)                                            │
//! │   magic "HBPACK1\n" · version · page_size · entry_count      │
//! │   data_len · (offset,len) of page table / meta / keyset      │
//! │   next_id · header checksum (FNV-1a 64)                      │
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
//! id→row lookups binary-search the keyset. `next_id` is the id
//! high-water mark, one past every id the repository ever assigned, so
//! an id removed before the pack was written is never handed out again.
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
//! The meta section doubles as the filter index ([`EntryMeta`]) and
//! lives in memory after open, so filtered scans and aggregates never
//! touch a data page. A scan reads only the compact meta rows, in
//! row (= id) order: collection and class are interned once per
//! distinct name, analyses sit in a side table, and the record location
//! and content hash — which only hydration and checkpoints read — live
//! in a second, parallel array.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
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
/// (strictly ascending, non-dense) id sequences. Version 3 added
/// `next_id` to the header; a version-2 pack still opens, with the mark
/// one past its last row.
const VERSION: u32 = 3;
/// Header length in bytes (version 3).
const HEADER_LEN: u64 = 96;
/// Header length of a version-2 pack, which has no `next_id`.
const V2_HEADER_LEN: u64 = 88;
/// Default data page size. 4 KiB aligns with common filesystem blocks;
/// small enough that a single-entry hydration reads little more than
/// the record itself.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;
/// Smallest accepted page size (checksum granularity becomes absurd
/// below this, and a zero page size would divide by zero).
const MIN_PAGE_SIZE: u32 = 64;

/// The part of one meta-section row a metadata scan reads.
#[derive(Debug)]
struct MetaRow {
    id: usize,
    vertices: usize,
    edges: usize,
    arity: usize,
    /// Index into [`PackStore::names`].
    collection: u32,
    /// Index into [`PackStore::names`].
    class: u32,
    /// Index into [`PackStore::analyses`].
    analysis: Option<u32>,
}

/// The rest of a meta-section row: where its record lies in the data
/// region, and its stored content hash.
#[derive(Debug)]
struct RowData {
    rec_off: u64,
    rec_len: u64,
    content_hash: u64,
}

/// An open pack file: indexes resident, payloads on disk, hydrated
/// entries cached per slot. A new repository's base is an empty pack:
/// no rows, and no file behind them.
pub struct PackStore {
    /// `None` only for the empty pack, which has no page to read.
    file: Option<Mutex<File>>,
    /// Where the data region starts: the header length of the pack's
    /// version.
    data_off: u64,
    page_size: u64,
    data_len: u64,
    page_sums: Vec<u64>,
    /// One row per entry, ids strictly ascending.
    rows: Vec<MetaRow>,
    /// Parallel to `rows`.
    data: Vec<RowData>,
    /// Every distinct collection and class name, once.
    names: Vec<Box<str>>,
    /// The analysed rows' records.
    analyses: Vec<AnalysisRecord>,
    slots: Vec<OnceLock<Arc<Entry>>>,
    /// One past every id ever assigned; at least one past the last row.
    next_id: usize,
}

impl std::fmt::Debug for PackStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackStore")
            .field("entries", &self.rows.len())
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
/// (tests use tiny pages to exercise multi-page records). The header
/// keeps `repo`'s id high-water mark, removed ids included.
pub fn write_pack_with(repo: &Repository, path: &Path, page_size: u32) -> Result<(), StoreError> {
    write_records(repo.records(), repo.next_id(), path, page_size)
}

/// The content hash a pack stores per entry: FNV-1a 64 over the
/// canonical unnamed `.hg` serialization, so two submissions that parse
/// to the same hypergraph hash identically regardless of whitespace or
/// edge naming in the source text.
pub fn content_hash_of(h: &hyperbench_core::Hypergraph) -> u64 {
    store_fnv64(to_hg_unnamed(h).as_bytes())
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
    /// A resident entry: serialized, and handed to the written pack's
    /// slot by [`PackStore::adopt`].
    Shared(&'a Arc<Entry>),
}

/// Writes an ascending-id record stream as a pack file — the one pack
/// writer — with `next_id` as its id high-water mark (raised to one past
/// the last record if lower, so the pack always opens). The data region
/// is streamed page by page (one page resident, never the whole region);
/// only the index sections are built in memory.
///
/// The file is written under a temp name and renamed, so a crash
/// mid-write never leaves a half-written pack under the final name. The
/// temp file is fsynced *before* the rename and the directory *after*
/// it: callers (the MVCC checkpointer in particular) durably discard
/// the WAL records this pack folds in as soon as we return, so a power
/// loss must not be able to surface an old or torn pack.
pub(crate) fn write_records<'a>(
    records: impl Iterator<Item = Record<'a>>,
    next_id: usize,
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
                    let d = &pack.data[row];
                    let pages = match &mut pages {
                        Some(p) if std::ptr::eq(p.pack, pack) => p,
                        other => other.insert(PageReader::new(pack)),
                    };
                    pages.read(d.rec_off, d.rec_len, &mut record)?;
                    w.push(pack.meta_at(row), d.content_hash, &record)?;
                }
                Record::Shared(e) => w.push_entry(e, &mut record)?,
            }
        }
        w.finish(next_id)
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
    fn finish(mut self, next_id: usize) -> Result<(), StoreError> {
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
        let next_id = self.last_id.map_or(next_id, |last| next_id.max(last + 1));
        codec::put_u64(&mut header, next_id as u64);
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

/// A side-table index as a meta row stores it.
fn index(at: usize) -> Result<u32, StoreError> {
    u32::try_from(at).map_err(|_| {
        StoreError::Corrupt("pack meta section: more rows than this build indexes".to_string())
    })
}

/// The index of `name` in `names`, appended on its first appearance:
/// one copy per distinct collection or class name, however many rows
/// carry it.
fn intern<'m>(
    names: &mut Vec<Box<str>>,
    interned: &mut HashMap<&'m str, u32>,
    name: &'m str,
) -> Result<u32, StoreError> {
    if let Some(&at) = interned.get(name) {
        return Ok(at);
    }
    let at = index(names.len())?;
    names.push(name.into());
    interned.insert(name, at);
    Ok(at)
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
                let file = pack.file.as_ref().ok_or_else(|| {
                    StoreError::Corrupt("a pack without a file has no pages".to_string())
                })?;
                read_at(file, pack.data_off + page_start, &mut self.page)?;
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
    /// A pack of no rows, backed by no file.
    pub(crate) fn empty() -> PackStore {
        PackStore {
            file: None,
            data_off: HEADER_LEN,
            page_size: DEFAULT_PAGE_SIZE as u64,
            data_len: 0,
            page_sums: Vec::new(),
            rows: Vec::new(),
            data: Vec::new(),
            names: Vec::new(),
            analyses: Vec::new(),
            slots: Vec::new(),
            next_id: 0,
        }
    }

    /// Opens a pack: header + index sections only. Truncation, bad
    /// magic, checksum mismatches, and index rows pointing outside the
    /// data region all surface here as named [`StoreError`]s.
    pub fn open(path: &Path) -> Result<PackStore, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let truncated = |expected| StoreError::Truncated {
            expected,
            actual: file_len,
        };
        // The version says how long the header is; it is believed only
        // once the header checksum holds.
        if file_len < 12 {
            return Err(truncated(HEADER_LEN));
        }
        let mut header = vec![0u8; 12];
        file.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(StoreError::Corrupt(format!(
                "not a pack file (bad magic {:?})",
                &header[..8]
            )));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let header_len = if version == 2 {
            V2_HEADER_LEN
        } else {
            HEADER_LEN
        };
        if file_len < header_len {
            return Err(truncated(header_len));
        }
        header.resize(header_len as usize, 0);
        file.read_exact(&mut header[12..])?;
        let (body, sum_bytes) = header.split_at(header_len as usize - 8);
        let stored_sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if store_fnv64(body) != stored_sum {
            return Err(StoreError::Corrupt(
                "pack header checksum mismatch".to_string(),
            ));
        }
        if !(2..=VERSION).contains(&version) {
            return Err(StoreError::Corrupt(format!(
                "unsupported pack version {version} (this build reads 2 and {VERSION})"
            )));
        }
        let mut r = Reader::new(&body[12..], "pack header");
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
        let stored_next_id = if version == 2 { None } else { Some(r.u64()?) };
        // Every region must lie within the file: a pack cut short by a
        // partial copy is reported as truncation, with the shortfall.
        for (off, len) in [
            (header_len, data_len),
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
        // The header's count is not trusted for allocation: every row
        // takes more than one byte of the section already read.
        let capacity = entry_count.min(meta.len());
        let mut rows = Vec::with_capacity(capacity);
        let mut data = Vec::with_capacity(capacity);
        let mut names = Vec::new();
        let mut interned = HashMap::new();
        let mut analyses = Vec::new();
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
            let collection = intern(&mut names, &mut interned, r.str_ref()?)?;
            let class = intern(&mut names, &mut interned, r.str_ref()?)?;
            let vertices = r.u64()? as usize;
            let edges = r.u64()? as usize;
            let arity = r.u64()? as usize;
            let content_hash = r.u64()?;
            let analysis = match r.u8()? {
                0 => None,
                1 => {
                    analyses.push(codec::read_analysis(&mut r)?);
                    Some(index(analyses.len() - 1)?)
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "pack meta section: bad analysis tag {other} for id {id}"
                    )))
                }
            };
            rows.push(MetaRow {
                id,
                vertices,
                edges,
                arity,
                collection,
                class,
                analysis,
            });
            data.push(RowData {
                rec_off,
                rec_len,
                content_hash,
            });
        }

        // Keyset index: the same ids, in the same (ascending) order.
        // The rows hold them from here on.
        let mut r = Reader::new(&keyset, "pack keyset index");
        for row in &rows {
            if r.u64()? as usize != row.id {
                return Err(StoreError::Corrupt(
                    "pack keyset index does not match the meta section's ids".to_string(),
                ));
            }
        }

        // The id high-water mark: stored since version 3, and never
        // below one past the last row.
        let past_last = match rows.last() {
            None => 0,
            Some(row) => row.id.checked_add(1).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "pack meta section: id {} leaves no next id",
                    row.id
                ))
            })?,
        };
        let next_id = match stored_next_id {
            None => past_last,
            Some(mark) => match usize::try_from(mark) {
                Ok(mark) if mark >= past_last => mark,
                _ => {
                    return Err(StoreError::Corrupt(format!(
                        "pack header: next id {mark} is not past the last id {}",
                        past_last.saturating_sub(1)
                    )))
                }
            },
        };
        let slots = (0..entry_count).map(|_| OnceLock::new()).collect();
        Ok(PackStore {
            file: Some(file),
            data_off: header_len,
            page_size: page_size as u64,
            data_len,
            page_sums,
            rows,
            data,
            names,
            analyses,
            slots,
            next_id,
        })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The row of entry `id`, or the row it would be inserted at when
    /// the pack does not hold it (ids are ascending but possibly
    /// sparse).
    pub(crate) fn search(&self, id: usize) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&id, |row| row.id)
    }

    /// The pack's id high-water mark: one past every id ever assigned
    /// to the repository it was written from (0 for a fresh one).
    pub(crate) fn next_id(&self) -> usize {
        self.next_id
    }

    /// The metadata view of the entry at row index `row`.
    fn meta_at(&self, row: usize) -> EntryMeta<'_> {
        self.view(&self.rows[row])
    }

    fn view<'a>(&'a self, row: &MetaRow) -> EntryMeta<'a> {
        EntryMeta {
            id: row.id,
            collection: &self.names[row.collection as usize],
            class: &self.names[row.class as usize],
            vertices: row.vertices,
            edges: row.edges,
            arity: row.arity,
            analysis: row.analysis.map(|at| &self.analyses[at as usize]),
        }
    }

    /// The metadata of rows `rows`, in row (= id) order — a walk of the
    /// row array, no lookup per row.
    pub(crate) fn metas_at(&self, rows: Range<usize>) -> Metas<'_> {
        Metas {
            pack: self,
            rows: self.rows[rows].iter(),
        }
    }

    /// The stored content hash (FNV-1a 64 of the canonical `.hg`
    /// payload) of the entry at row `row` — no disk access.
    pub(crate) fn content_hash_at_row(&self, row: usize) -> u64 {
        self.data[row].content_hash
    }

    /// Returns the hydrated entry at row index `row`, reading and
    /// verifying exactly the pages covering its record on first access.
    pub(crate) fn hydrate_row(&self, row: usize) -> Result<&Entry, StoreError> {
        if let Some(e) = self.slots[row].get() {
            return Ok(e);
        }
        let meta = self.meta_at(row);
        let id = meta.id;
        let d = &self.data[row];
        let mut bytes = Vec::new();
        PageReader::new(self).read(d.rec_off, d.rec_len, &mut bytes)?;
        let mut r = Reader::new(&bytes, "pack entry record");
        let name = r.str()?;
        let hg_text = r.str()?;
        crate::metrics::metrics().pack_entries_parsed.inc();
        let hypergraph = parse_hg_named(&hg_text, &name).map_err(|e| {
            StoreError::Corrupt(format!("pack record for entry {id}: bad .hg payload: {e}"))
        })?;
        let entry = Arc::new(Entry {
            id,
            collection: meta.collection.to_string(),
            class: meta.class.to_string(),
            hypergraph,
            analysis: meta.analysis.cloned(),
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
            };
            if let Some(e) = resident {
                let _ = slot.set(Arc::clone(e));
            }
        }
    }
}

/// A walk over a run of a pack's rows (see [`PackStore::metas_at`]).
pub(crate) struct Metas<'a> {
    pack: &'a PackStore,
    rows: std::slice::Iter<'a, MetaRow>,
}

impl<'a> Iterator for Metas<'a> {
    type Item = EntryMeta<'a>;

    // Inlined into the scans of other crates, which are generic over
    // this iterator: measured 25–40 % off `query.exec_*`.
    #[inline]
    fn next(&mut self) -> Option<EntryMeta<'a>> {
        self.rows.next().map(|row| self.pack.view(row))
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
        // tree → pack → open → tree reproduces the manifest and the
        // payloads byte for byte: the pack is the store, the tree stays
        // the interchange.
        let tree1 = dir.join("tree1");
        let tree2 = dir.join("tree2");
        super::super::tree::export(&repo, &tree1).unwrap();
        let pack = dir.join("repo.pack");
        write_pack(&repo, &pack).unwrap();
        let opened = Repository::open_pack(&pack).unwrap();
        super::super::tree::export(&opened, &tree2).unwrap();
        for file in ["index.tsv", "00000.hg", "00006.hg"] {
            assert_eq!(
                fs::read(tree1.join(file)).unwrap(),
                fs::read(tree2.join(file)).unwrap(),
                "{file} changed across tree→pack→tree"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_removed_highest_id_stays_retired_across_write_pack() {
        let dir = tmpdir("high-water");
        let pack = dir.join("repo.pack");
        let mut repo = corpus();
        let highest = repo.metas().last().unwrap().id;
        repo.remove(highest).unwrap();
        write_pack(&repo, &pack).unwrap();
        let mut opened = Repository::open_pack(&pack).unwrap();
        assert_eq!(opened.len(), repo.len());
        let fresh = opened.insert(hypergraph_from_edges(&[("n", &["p", "q"])]), "x", "y");
        assert_eq!(
            fresh,
            highest + 1,
            "the removed id {highest} was handed out again"
        );
        // Folding the open pack again keeps the mark.
        write_pack(&opened, &pack).unwrap();
        let mut reopened = Repository::open_pack(&pack).unwrap();
        let id = reopened.insert(hypergraph_from_edges(&[("m", &["p", "q"])]), "x", "y");
        assert_eq!(id, highest + 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_high_water_mark_below_the_last_id_is_corrupt() {
        let dir = tmpdir("low-mark");
        let pack = dir.join("repo.pack");
        write_pack(&corpus(), &pack).unwrap();
        let mut bytes = fs::read(&pack).unwrap();
        // `next_id` is the header's last field before its checksum;
        // re-checksum so only the mark check can object.
        let mark = HEADER_LEN as usize - 16;
        assert_eq!(bytes[mark..mark + 8], 7u64.to_le_bytes());
        bytes[mark..mark + 8].copy_from_slice(&6u64.to_le_bytes());
        let sum = store_fnv64(&bytes[..mark + 8]);
        bytes[mark + 8..HEADER_LEN as usize].copy_from_slice(&sum.to_le_bytes());
        fs::write(&pack, &bytes).unwrap();
        match Repository::open_pack(&pack) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("next id 6"), "msg: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
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
        // agree with the ones computed from the resident entries.
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

    /// What a reopened pack must reproduce of a repository: every
    /// meta field, the payload text and name, and the analysis (less
    /// its step timings, which packs do not store).
    type View = (usize, String, String, usize, String, Option<AnalysisRecord>);

    fn view(repo: &Repository) -> Vec<View> {
        repo.metas()
            .zip(repo.entries())
            .map(|(m, e)| {
                assert_eq!(m.id, e.id);
                (
                    m.id,
                    format!("{}/{}/{}/{}", m.collection, m.class, m.vertices, m.arity),
                    e.hypergraph.name().to_string(),
                    m.edges,
                    to_hg_unnamed(&e.hypergraph),
                    m.analysis.map(|r| AnalysisRecord {
                        hw_steps: Vec::new(),
                        ..r.clone()
                    }),
                )
            })
            .collect()
    }

    #[test]
    fn an_opened_pack_takes_edits() {
        let dir = tmpdir("edits");
        let pack = dir.join("repo.pack");
        let mut model = corpus();
        write_pack(&model, &pack).unwrap();
        let mut paged = Repository::open_pack(&pack).unwrap();
        let square = hypergraph_from_edges(&[
            ("p", &["a", "b"]),
            ("q", &["b", "c"]),
            ("r", &["c", "d"]),
            ("s", &["d", "a"]),
        ]);
        let record = analyze_instance(&square, &AnalysisConfig::default());
        // The same edits on both: base rows replaced, removed and
        // re-analysed, and a fresh entry inserted and analysed.
        let edit = |repo: &mut Repository| {
            let fresh = repo.insert(square.clone(), "fresh", "CQ Application");
            let replacement = Entry {
                id: 0,
                collection: "LUBM".to_string(),
                class: "CQ Application".to_string(),
                hypergraph: hypergraph_from_edges(&[("f", &["x", "y", "z"])]),
                analysis: None,
            };
            repo.replace(1, replacement).unwrap();
            repo.remove(2).unwrap();
            repo.set_analysis(3, record.clone());
            repo.set_analysis(6, record.clone());
            repo.set_analysis(fresh, record.clone());
            fresh
        };
        assert_eq!(edit(&mut paged), 7);
        assert_eq!(edit(&mut model), 7);
        assert_eq!(paged.len(), model.len());
        assert_eq!(view(&paged), view(&model));
        let edited = dir.join("edited.pack");
        write_pack(&paged, &edited).unwrap();
        let reopened = Repository::open_pack(&edited).unwrap();
        assert_eq!(view(&reopened), view(&model));
        assert_eq!(
            reopened.metas().map(|m| m.id).collect::<Vec<_>>(),
            vec![0, 1, 3, 4, 5, 6, 7]
        );
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
