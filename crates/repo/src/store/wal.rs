//! The append-only write-ahead log behind the mutable repository.
//!
//! Every mutation (insert / replace / remove) is encoded as one framed
//! record — `[u32 len][payload][u64 checksum]`, the frame of
//! `store/frame.rs` that the analysis-cache [`super::spill`] segment
//! shares — appended with a single `write_all`, and made durable with
//! one `fdatasync` before the mutation is acknowledged. The fsync is the
//! commit point: a record that survives restart was acknowledged, a
//! record that does not was never acknowledged.
//!
//! Recovery ([`recover`]) tolerates a torn tail: a crash mid-append
//! leaves a partial frame, which scanning detects and drops, returning
//! the longest valid prefix plus a
//! [`StoreError::WalTornTail`] describing what was cut. Damage
//! *before* the tail — a checksum mismatch with further intact frames
//! behind it — is real corruption and fails the open.
//!
//! After a checkpoint folds committed records into fresh pack pages,
//! [`rewrite`] atomically replaces the log (temp file, fsync, rename,
//! parent-directory fsync)
//! with only the records newer than the checkpoint, so the log stays
//! proportional to un-checkpointed work instead of total history.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use hyperbench_core::format::{parse_hg_named, to_hg_unnamed};
use hyperbench_fault::fail_point;

use crate::analysis::AnalysisRecord;
use crate::Entry;

use super::codec::{self, Reader};
use super::{frame, StoreError};

/// One durable repository mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A new entry under a freshly assigned id.
    Insert {
        /// Commit sequence number (strictly increasing within a log).
        seq: u64,
        /// The inserted entry, id included.
        entry: WalEntry,
    },
    /// A full replacement of an existing entry's payload.
    Replace {
        /// Commit sequence number.
        seq: u64,
        /// The replacement entry, keyed by its id.
        entry: WalEntry,
    },
    /// Removal of an existing entry.
    Remove {
        /// Commit sequence number.
        seq: u64,
        /// The removed entry's id.
        id: u64,
    },
}

impl WalRecord {
    /// The record's commit sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Insert { seq, .. }
            | WalRecord::Replace { seq, .. }
            | WalRecord::Remove { seq, .. } => *seq,
        }
    }
}

/// The logged form of an [`Entry`]: the hypergraph travels as its
/// canonical `.hg` text (name alongside, like the TSV index), so the
/// log is self-describing and replay re-parses through the same code
/// path every other backend uses.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// Repository id (assigned at commit time, explicit in the log
    /// because checkpointed packs may hold sparse id sets).
    pub id: u64,
    /// Hypergraph name ("" for unnamed).
    pub name: String,
    /// Source collection.
    pub collection: String,
    /// Instance class.
    pub class: String,
    /// Canonical unnamed `.hg` payload.
    pub hg_text: String,
    /// Analysis results, if the entry was analyzed when logged.
    pub analysis: Option<AnalysisRecord>,
}

impl WalEntry {
    /// Captures an [`Entry`] into its logged form.
    pub fn of(e: &Entry) -> WalEntry {
        WalEntry {
            id: e.id as u64,
            name: e.hypergraph.name().to_string(),
            collection: e.collection.clone(),
            class: e.class.clone(),
            hg_text: to_hg_unnamed(&e.hypergraph),
            analysis: e.analysis.clone(),
        }
    }

    /// Rebuilds the [`Entry`] this record captured.
    pub fn into_entry(self) -> Result<Entry, StoreError> {
        let hypergraph = parse_hg_named(&self.hg_text, &self.name)
            .map_err(|e| StoreError::Corrupt(format!("wal entry {}: {e}", self.id)))?;
        Ok(Entry {
            id: self.id as usize,
            collection: self.collection,
            class: self.class,
            hypergraph,
            analysis: self.analysis,
        })
    }
}

const TAG_INSERT: u8 = 1;
const TAG_REPLACE: u8 = 2;
const TAG_REMOVE: u8 = 3;

fn put_entry(buf: &mut Vec<u8>, e: &WalEntry) {
    codec::put_u64(buf, e.id);
    codec::put_str(buf, &e.name);
    codec::put_str(buf, &e.collection);
    codec::put_str(buf, &e.class);
    codec::put_str(buf, &e.hg_text);
    match &e.analysis {
        Some(rec) => {
            codec::put_u8(buf, 1);
            codec::put_analysis(buf, rec);
        }
        None => codec::put_u8(buf, 0),
    }
}

fn read_entry(r: &mut Reader<'_>) -> Result<WalEntry, StoreError> {
    let id = r.u64()?;
    let name = r.str()?;
    let collection = r.str()?;
    let class = r.str()?;
    let hg_text = r.str()?;
    let analysis = match r.u8()? {
        0 => None,
        1 => Some(codec::read_analysis(r)?),
        other => {
            return Err(StoreError::Corrupt(format!(
                "wal entry {id}: bad analysis marker {other}"
            )))
        }
    };
    Ok(WalEntry {
        id,
        name,
        collection,
        class,
        hg_text,
        analysis,
    })
}

/// Encodes one record as a framed byte string ready to append.
pub fn encode(record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    match record {
        WalRecord::Insert { seq, entry } => {
            codec::put_u8(&mut payload, TAG_INSERT);
            codec::put_u64(&mut payload, *seq);
            put_entry(&mut payload, entry);
        }
        WalRecord::Replace { seq, entry } => {
            codec::put_u8(&mut payload, TAG_REPLACE);
            codec::put_u64(&mut payload, *seq);
            put_entry(&mut payload, entry);
        }
        WalRecord::Remove { seq, id } => {
            codec::put_u8(&mut payload, TAG_REMOVE);
            codec::put_u64(&mut payload, *seq);
            codec::put_u64(&mut payload, *id);
        }
    }
    frame::frame(&payload)
}

fn decode_payload(payload: &[u8], offset: u64) -> Result<WalRecord, StoreError> {
    let mut r = Reader::new(payload, "wal record");
    let tag = r.u8()?;
    let seq = r.u64()?;
    let record = match tag {
        TAG_INSERT => WalRecord::Insert {
            seq,
            entry: read_entry(&mut r)?,
        },
        TAG_REPLACE => WalRecord::Replace {
            seq,
            entry: read_entry(&mut r)?,
        },
        TAG_REMOVE => WalRecord::Remove { seq, id: r.u64()? },
        other => {
            return Err(StoreError::Corrupt(format!(
                "wal record at offset {offset}: unknown tag {other}"
            )))
        }
    };
    if !r.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "wal record at offset {offset}: trailing bytes after payload"
        )));
    }
    Ok(record)
}

/// Scans a log image, returning every intact record plus the error that
/// stopped the scan, if any. A partial frame at the tail (or a checksum
/// mismatch on the *final* frame) comes back as
/// [`StoreError::WalTornTail`]; a bad checksum with intact frames
/// behind it is [`StoreError::Corrupt`]. Sequence numbers must be
/// strictly increasing.
pub fn scan(bytes: &[u8]) -> (Vec<WalRecord>, Option<StoreError>) {
    let mut last_seq: Option<u64> = None;
    frame::scan(
        bytes,
        "wal record",
        |offset| StoreError::WalTornTail { offset },
        |payload, offset| {
            let record = decode_payload(payload, offset)?;
            if let Some(prev) = last_seq.filter(|&prev| record.seq() <= prev) {
                return Err(StoreError::Corrupt(format!(
                    "wal record at offset {offset}: seq {} not after {prev}",
                    record.seq()
                )));
            }
            last_seq = Some(record.seq());
            Ok(record)
        },
    )
}

/// The outcome of [`recover`]: the committed records plus whether a
/// torn tail was dropped to get them.
#[derive(Debug)]
pub struct Recovery {
    /// Every record whose append completed (fsync may or may not have
    /// finished — surviving the crash is the ground truth).
    pub records: Vec<WalRecord>,
    /// Offset of a dropped torn tail, if the log had one.
    pub torn_tail: Option<u64>,
}

/// Reads a log leniently: a missing file is an empty log, a torn tail
/// is dropped (and reported), and anything else corrupt is an error.
pub fn recover(path: &Path) -> Result<Recovery, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Recovery {
                records: Vec::new(),
                torn_tail: None,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let (records, err) = scan(&bytes);
    match err {
        None => Ok(Recovery {
            records,
            torn_tail: None,
        }),
        Some(StoreError::WalTornTail { offset }) => {
            // The tear starts after `records.len()` intact frames: that
            // count *is* the frame index of the truncation point. Both
            // coordinates matter to an operator — the offset locates
            // the damage in the file, the frame index says how many
            // commits survived in front of it.
            hyperbench_telemetry::log_warn!("wal", "dropping torn tail";
                path = path.display(), offset = offset, frame = records.len(),
                dropped_bytes = bytes.len() as u64 - offset);
            crate::metrics::metrics().wal_torn_tail_recoveries.inc();
            Ok(Recovery {
                records,
                torn_tail: Some(offset),
            })
        }
        Some(e) => Err(e),
    }
}

/// Reads a log strictly: any torn tail or corruption is an error.
pub fn read_all(path: &Path) -> Result<Vec<WalRecord>, StoreError> {
    let bytes = std::fs::read(path)?;
    let (records, err) = scan(&bytes);
    match err {
        None => Ok(records),
        Some(e) => Err(e),
    }
}

/// An open log with append rights. Each [`append`](WalWriter::append)
/// is one `write_all` of a complete frame followed by one `fdatasync` —
/// the durability point the caller acknowledges writes at.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
}

impl WalWriter {
    /// Opens (creating if missing) the log at `path` for appending. The
    /// caller is responsible for having [`recover`]ed first; if the log
    /// ended in a torn tail, pass its offset as `truncate_to` so the
    /// tear is cut before fresh appends land behind it.
    pub fn open_append(path: &Path, truncate_to: Option<u64>) -> Result<WalWriter, StoreError> {
        if let Some(offset) = truncate_to {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(offset)?;
            f.sync_data()?;
        }
        let existed = path.exists();
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if !existed {
            // A brand-new log's directory entry must be durable before
            // any append is acknowledged, or a crash could drop the
            // whole file along with every "synced" record in it.
            super::sync_parent_dir(path)?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record and makes it durable. Returns the framed size
    /// in bytes (for metrics).
    pub fn append(&mut self, record: &WalRecord) -> Result<usize, StoreError> {
        fail_point!("wal.append", |msg: String| Err(StoreError::Io(
            std::io::Error::other(format!("failpoint wal.append: {msg}"))
        )));
        let framed = encode(record);
        self.file.write_all(&framed)?;
        fail_point!("wal.fsync", |msg: String| Err(StoreError::Io(
            std::io::Error::other(format!("failpoint wal.fsync: {msg}"))
        )));
        self.file.sync_data()?;
        crate::metrics::metrics().wal_fsyncs.inc();
        Ok(framed.len())
    }

    /// Current log size in bytes.
    pub fn size(&self) -> Result<u64, StoreError> {
        Ok(self.file.metadata()?.len())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Atomically replaces the log at `path` with exactly `records` (used
/// after a checkpoint folds the prefix into pack pages). The new image
/// is written to a temp file, fsynced, then renamed over the old log.
/// Returns a fresh writer positioned at the new tail.
pub fn rewrite(path: &Path, records: &[WalRecord]) -> Result<WalWriter, StoreError> {
    fail_point!("wal.rewrite", |msg: String| Err(StoreError::Io(
        std::io::Error::other(format!("failpoint wal.rewrite: {msg}"))
    )));
    let tmp = path.with_extension("wal.tmp");
    {
        let mut f = File::create(&tmp)?;
        for record in records {
            f.write_all(&encode(record))?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // The rename itself must be durable: if the directory update were
    // lost, a crash would resurrect the pre-checkpoint log, replaying
    // records the pack already folded in (double-apply on sparse ids).
    super::sync_parent_dir(path)?;
    WalWriter::open_append(path, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hyperbench-wal-test-{name}-{}", std::process::id()))
    }

    fn sample_entry(id: u64) -> WalEntry {
        let h = hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"])]);
        WalEntry {
            id,
            name: format!("g{id}"),
            collection: "SPARQL".to_string(),
            class: "CQ Application".to_string(),
            hg_text: to_hg_unnamed(&h),
            analysis: None,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                seq: 1,
                entry: sample_entry(12),
            },
            WalRecord::Replace {
                seq: 2,
                entry: sample_entry(3),
            },
            WalRecord::Remove { seq: 3, id: 12 },
        ]
    }

    #[test]
    fn append_and_read_roundtrip() {
        let path = tmpfile("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open_append(&path, None).unwrap();
        let records = sample_records();
        for r in &records {
            assert!(w.append(r).unwrap() > 12);
        }
        assert_eq!(read_all(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn entry_roundtrips_through_wal_form() {
        let entry = sample_entry(5);
        let rebuilt = WalEntry::of(&entry.clone().into_entry().unwrap());
        assert_eq!(rebuilt, entry);
    }

    #[test]
    fn any_truncation_recovers_a_consistent_prefix() {
        let records = sample_records();
        let mut image = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            image.extend_from_slice(&encode(r));
            boundaries.push(image.len());
        }
        for cut in 0..=image.len() {
            let (prefix, err) = scan(&image[..cut]);
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(prefix, records[..whole], "cut at {cut}");
            if boundaries.contains(&cut) {
                assert!(err.is_none(), "clean boundary at {cut} flagged: {err:?}");
            } else {
                assert!(
                    matches!(err, Some(StoreError::WalTornTail { .. })),
                    "cut at {cut} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn mid_log_corruption_is_fatal_not_torn() {
        let records = sample_records();
        let mut image = Vec::new();
        for r in &records {
            image.extend_from_slice(&encode(r));
        }
        // Flip a payload byte in the first record: a later intact frame
        // exists, so this is corruption, not a torn tail.
        image[6] ^= 0xff;
        let (prefix, err) = scan(&image);
        assert!(prefix.is_empty());
        assert!(matches!(err, Some(StoreError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn recover_drops_a_torn_tail_and_writer_truncates_it() {
        let path = tmpfile("torn");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        let mut w = WalWriter::open_append(&path, None).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        // Simulate a crash mid-append: half a frame at the tail.
        let image = std::fs::read(&path).unwrap();
        let mut torn = image.clone();
        torn.extend_from_slice(&encode(&WalRecord::Remove { seq: 9, id: 1 })[..7]);
        std::fs::write(&path, &torn).unwrap();

        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, records);
        assert_eq!(rec.torn_tail, Some(image.len() as u64));

        // Reopening with truncation cuts the tear; the next append
        // lands on a clean boundary.
        let mut w = WalWriter::open_append(&path, rec.torn_tail).unwrap();
        w.append(&WalRecord::Remove { seq: 4, id: 3 }).unwrap();
        assert_eq!(read_all(&path).unwrap().len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_recovers_empty() {
        let rec = recover(Path::new("/nonexistent/hyperbench.wal")).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.torn_tail.is_none());
    }

    #[test]
    fn non_monotonic_seq_is_corrupt() {
        let mut image = Vec::new();
        image.extend_from_slice(&encode(&WalRecord::Remove { seq: 5, id: 0 }));
        image.extend_from_slice(&encode(&WalRecord::Remove { seq: 5, id: 1 }));
        let (prefix, err) = scan(&image);
        assert_eq!(prefix.len(), 1);
        assert!(matches!(err, Some(StoreError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn rewrite_replaces_the_log_atomically() {
        let path = tmpfile("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open_append(&path, None).unwrap();
        for r in &sample_records() {
            w.append(r).unwrap();
        }
        drop(w);
        let keep = vec![WalRecord::Remove { seq: 3, id: 12 }];
        let mut w = rewrite(&path, &keep).unwrap();
        assert_eq!(read_all(&path).unwrap(), keep);
        // The returned writer appends at the rewritten tail.
        w.append(&WalRecord::Remove { seq: 4, id: 3 }).unwrap();
        assert_eq!(read_all(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
