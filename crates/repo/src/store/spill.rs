//! The analysis-cache spill segment: an append-only sidecar file
//! (`cache.spill` next to a served repository) persisting finished
//! analysis results — content hash + options-keyed document → record —
//! so a restarted server reloads its LRU warm instead of re-running
//! every decomposition search.
//!
//! Each record is framed `[u32 payload length][payload][u64 checksum of
//! the payload]` (the frame of `store/frame.rs`, shared with the
//! [`super::wal`]) and appended with a single write, so the only damage
//! a crash can leave is a *torn tail*: a final record whose frame is
//! incomplete or fails its checksum. [`read_all`] reports that as the
//! named [`StoreError::SpillTornTail`]; [`recover`] returns the valid prefix
//! together with the tail diagnosis, which is what a starting server
//! uses. [`compact`] rewrites the segment keeping only the newest
//! record per key and dropping any torn tail — run at startup, it
//! bounds the segment's growth across restarts.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use crate::analysis::AnalysisRecord;

use super::codec::{self, Reader};
use super::{frame, StoreError};

/// One persisted analysis result. The `keyed` document is the cache
/// identity (options key + canonicalized `.hg` source, exactly what the
/// server hashes); `hg_text` is the canonical serialization the result
/// hypergraph is rebuilt from; `witness_json` carries the witness
/// decomposition in its wire-DTO JSON form, opaque to this layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillRecord {
    /// The content hash the cache indexes by.
    pub hash: u64,
    /// The options-keyed canonical document (collision guard).
    pub keyed: String,
    /// The analysis method's wire string (`hd`/`ghd`/`fhd`).
    pub method: String,
    /// The hypergraph, serialized canonically.
    pub hg_text: String,
    /// The bounds-only analysis record.
    pub record: AnalysisRecord,
    /// The witness decomposition as wire JSON, when one was found.
    pub witness_json: Option<String>,
    /// `fhd` only: the fractional width string.
    pub fractional_width: Option<String>,
}

impl SpillRecord {
    /// Encodes the record as a framed byte string ready to append.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, self.hash);
        codec::put_str(&mut payload, &self.keyed);
        codec::put_str(&mut payload, &self.method);
        codec::put_str(&mut payload, &self.hg_text);
        codec::put_analysis(&mut payload, &self.record);
        codec::put_opt_str(&mut payload, self.witness_json.as_deref());
        codec::put_opt_str(&mut payload, self.fractional_width.as_deref());
        frame::frame(&payload)
    }

    fn decode(payload: &[u8]) -> Result<SpillRecord, StoreError> {
        let mut r = Reader::new(payload, "spill record");
        let record = SpillRecord {
            hash: r.u64()?,
            keyed: r.str()?,
            method: r.str()?,
            hg_text: r.str()?,
            record: codec::read_analysis(&mut r)?,
            witness_json: r.opt_str()?,
            fractional_width: r.opt_str()?,
        };
        if !r.is_empty() {
            return Err(StoreError::Corrupt(
                "spill record has trailing bytes".to_string(),
            ));
        }
        Ok(record)
    }
}

/// Appends records to a spill segment. Each append is one `write_all`
/// of the full frame, so concurrent readers (and the post-crash
/// recovery scan) see either the whole record or a detectable torn
/// tail, never an undetected half-record in the middle.
#[derive(Debug)]
pub struct SpillWriter {
    file: File,
    path: std::path::PathBuf,
}

impl SpillWriter {
    /// Opens (creating if missing) a segment for appending.
    pub fn open_append(path: &Path) -> std::io::Result<SpillWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(SpillWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record.
    pub fn append(&mut self, record: &SpillRecord) -> std::io::Result<()> {
        hyperbench_fault::fail_point!("spill.append", |msg: String| Err(std::io::Error::other(
            format!("failpoint spill.append: {msg}")
        )));
        self.file.write_all(&record.encode())?;
        self.file.flush()
    }

    /// Rewrites the segment keeping only the records `keep` accepts
    /// (atomically, temp file + rename), then reopens the writer on the
    /// new segment. Any torn tail is dropped alongside. Returns how many
    /// records were discarded — this is how the server scrubs spilled
    /// analyses whose instance a `PUT`/`DELETE` invalidated. A scrub
    /// that drops nothing from an undamaged segment writes nothing: the
    /// server runs one on every replace and delete.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&SpillRecord) -> bool,
    ) -> Result<usize, StoreError> {
        let (records, damage) = recover(&self.path)?;
        let kept: Vec<&SpillRecord> = records.iter().filter(|r| keep(r)).collect();
        if kept.len() == records.len() && damage.is_none() {
            return Ok(0);
        }
        let out: Vec<u8> = kept.iter().flat_map(|r| r.encode()).collect();
        let tmp = self.path.with_extension("spill.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        Ok(records.len() - kept.len())
    }
}

/// Parses the bytes of a spill segment. Returns the records decoded
/// before the first problem, plus the problem itself (if any) as a
/// named [`StoreError`]: a torn tail, a checksum mismatch, or a record
/// that fails to decode.
pub fn scan(bytes: &[u8]) -> (Vec<SpillRecord>, Option<StoreError>) {
    frame::scan(
        bytes,
        "spill record",
        |offset| StoreError::SpillTornTail { offset },
        |payload, _| SpillRecord::decode(payload),
    )
}

/// Strictly reads a spill segment: any torn tail or corruption is an
/// error, nothing is silently dropped.
pub fn read_all(path: &Path) -> Result<Vec<SpillRecord>, StoreError> {
    let bytes = std::fs::read(path)?;
    let (records, problem) = scan(&bytes);
    match problem {
        None => Ok(records),
        Some(e) => Err(e),
    }
}

/// Leniently reads a spill segment for warm reload: the valid prefix of
/// records plus the diagnosis of whatever cut the scan short. A missing
/// file is an empty segment, not an error.
pub fn recover(path: &Path) -> std::io::Result<(Vec<SpillRecord>, Option<StoreError>)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), None)),
        Err(e) => return Err(e),
    };
    Ok(scan(&bytes))
}

/// Compacts a segment in place: keeps the *newest* record per
/// `(hash, keyed)` identity, drops a torn tail, and rewrites atomically
/// (temp file + rename). Returns the number of records retained. A
/// missing file compacts to nothing.
pub fn compact(path: &Path) -> Result<usize, StoreError> {
    let (records, _tail) = recover(path)?;
    if records.is_empty() {
        // Nothing valid: remove a purely-torn segment so it does not
        // re-report the same damage on every restart.
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        return Ok(0);
    }
    // Last write wins per identity, original order otherwise.
    let mut newest: HashMap<(u64, &str), usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        newest.insert((r.hash, r.keyed.as_str()), i);
    }
    let mut keep: Vec<usize> = newest.into_values().collect();
    keep.sort_unstable();
    let mut out = Vec::new();
    for &i in &keep {
        out.extend_from_slice(&records[i].encode());
    }
    let tmp = path.with_extension("spill.tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)?;
    Ok(keep.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "hyperbench-spill-test-{name}-{}.spill",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn record(hash: u64, keyed: &str) -> SpillRecord {
        let h = hypergraph_from_edges(&[("e", &["a", "b"])]);
        let mut rec = crate::analyze_instance(&h, &crate::AnalysisConfig::default());
        // Per-k step timings are not persisted (same as the TSV index).
        rec.hw_steps.clear();
        SpillRecord {
            hash,
            keyed: keyed.to_string(),
            method: "hd".to_string(),
            hg_text: "e(a,b).\n".to_string(),
            record: rec,
            witness_json: Some(r#"{"width":1}"#.to_string()),
            fractional_width: None,
        }
    }

    #[test]
    fn append_and_read_roundtrip() {
        let path = tmpfile("roundtrip");
        let mut w = SpillWriter::open_append(&path).unwrap();
        let (a, b) = (record(1, "doc-a"), record(2, "doc-b"));
        w.append(&a).unwrap();
        w.append(&b).unwrap();
        drop(w);
        let back = read_all(&path).unwrap();
        assert_eq!(back, vec![a, b]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_a_named_error_and_recoverable() {
        let path = tmpfile("torn");
        let mut w = SpillWriter::open_append(&path).unwrap();
        w.append(&record(1, "doc-a")).unwrap();
        w.append(&record(2, "doc-b")).unwrap();
        drop(w);
        // Simulate a crash mid-append: half a frame at the tail.
        let valid_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x99, 0x07, 0x00]).unwrap();
        drop(f);
        match read_all(&path) {
            Err(StoreError::SpillTornTail { offset }) => assert_eq!(offset, valid_len),
            other => panic!("expected SpillTornTail, got {other:?}"),
        }
        // Recovery keeps the valid prefix and names the damage.
        let (records, problem) = recover(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(matches!(problem, Some(StoreError::SpillTornTail { .. })));
        // Compaction drops the torn tail; strict reads succeed again.
        assert_eq!(compact(&path).unwrap(), 2);
        assert_eq!(read_all(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_mismatch_is_corrupt_not_torn() {
        let path = tmpfile("badsum");
        let mut w = SpillWriter::open_append(&path).unwrap();
        w.append(&record(1, "doc-a")).unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len() as usize;
        w.append(&record(2, "doc-b")).unwrap();
        drop(w);
        // Damage inside the first record, with an intact one behind it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first_len / 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_all(&path), Err(StoreError::Corrupt(_))));
        // The same damage in the final record is a torn append (the
        // write-ahead log's rule, see `frame::scan`).
        bytes[first_len / 2] ^= 0xff;
        let last = bytes.len() - first_len / 2;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match read_all(&path) {
            Err(StoreError::SpillTornTail { offset }) => assert_eq!(offset, first_len as u64),
            other => panic!("expected SpillTornTail, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_keeps_newest_per_key() {
        let path = tmpfile("compact");
        let mut w = SpillWriter::open_append(&path).unwrap();
        let mut newer = record(1, "doc-a");
        w.append(&record(1, "doc-a")).unwrap();
        w.append(&record(2, "doc-b")).unwrap();
        newer.method = "ghd".to_string();
        w.append(&newer).unwrap();
        drop(w);
        assert_eq!(compact(&path).unwrap(), 2);
        let back = read_all(&path).unwrap();
        assert_eq!(back.len(), 2);
        let a = back.iter().find(|r| r.hash == 1).unwrap();
        assert_eq!(a.method, "ghd", "newest record per key must win");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retain_drops_records_and_keeps_appending() {
        let path = tmpfile("retain");
        let mut w = SpillWriter::open_append(&path).unwrap();
        w.append(&record(1, "doc-a")).unwrap();
        w.append(&record(2, "doc-b")).unwrap();
        assert_eq!(w.retain(|r| r.hash != 1).unwrap(), 1);
        // The writer survives the rewrite: appends land in the new file.
        w.append(&record(3, "doc-c")).unwrap();
        drop(w);
        let hashes: Vec<u64> = read_all(&path).unwrap().iter().map(|r| r.hash).collect();
        assert_eq!(hashes, vec![2, 3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn a_scrub_that_drops_nothing_writes_nothing() {
        use std::os::unix::fs::MetadataExt;
        let path = tmpfile("noop-scrub");
        let mut w = SpillWriter::open_append(&path).unwrap();
        let inode = |p: &Path| std::fs::metadata(p).unwrap().ino();
        // Empty segment, then a populated one nothing matches in.
        let before = inode(&path);
        assert_eq!(w.retain(|_| true).unwrap(), 0);
        w.append(&record(1, "doc-a")).unwrap();
        assert_eq!(w.retain(|r| r.hash != 9).unwrap(), 0);
        assert_eq!(inode(&path), before, "a no-op scrub must not rewrite");
        // A torn tail is damage worth rewriting away even when every
        // record is kept.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x99, 0x07, 0x00]).unwrap();
        drop(f);
        assert_eq!(w.retain(|_| true).unwrap(), 0);
        assert_ne!(inode(&path), before);
        assert_eq!(read_all(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_segment_recovers_and_compacts_to_empty() {
        let path = tmpfile("missing");
        let (records, problem) = recover(&path).unwrap();
        assert!(records.is_empty() && problem.is_none());
        assert_eq!(compact(&path).unwrap(), 0);
        assert!(matches!(read_all(&path), Err(StoreError::Io(_))));
    }
}
