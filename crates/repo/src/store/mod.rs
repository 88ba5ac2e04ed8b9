//! Persistence backends for the repository.
//!
//! Two formats, one contract:
//!
//! * TSV (via [`save`] / [`load`]) — the *interchange* format: one
//!   `.hg` file per hypergraph plus a tab-separated `index.tsv`. Human
//!   readable, diffable, byte-identical across save→load→save — but
//!   loading parses every payload up front.
//! * [`pack`] — the *serving* format: a single `repo.pack` file of
//!   fixed-size checksummed pages with an embedded metadata index and a
//!   sorted keyset index. Opening reads only the header and index
//!   sections; entry payloads hydrate lazily, page by page, on first
//!   access. Converting pack → TSV via [`save`] reproduces the source
//!   TSV byte for byte.
//! * [`spill`] — the append-only analysis-cache spill segment that
//!   rides alongside a served repository, persisting finished analysis
//!   results so the server's LRU reloads warm across restarts.
//!
//! Every corruption mode is a named [`StoreError`] with diagnostics
//! (file, page, offset) — never a panic and never a silent skip.

mod codec;
mod frame;
pub mod mvcc;
pub mod pack;
pub mod spill;
mod tsv;
pub mod wal;

pub use tsv::{load, save};

use std::io;
use std::path::Path;

/// Fsyncs the directory holding `path`, making a just-renamed (or
/// just-created) directory entry durable. Atomic-replace via temp
/// file and rename is only crash-safe once the *directory* is synced
/// too; without it a power loss can roll the rename back even though
/// the file data itself was fsynced. No-op off unix, where
/// directories cannot be opened for fsync (the writable store is
/// unix-only; see [`mvcc`]).
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::File::open(parent)?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Persistence errors. The pack- and spill-specific variants carry the
/// diagnostics needed to locate the damage, mirroring the line/field
/// messages [`load`] produces for `index.tsv`.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A `.hg` file, index row, or pack section failed to parse.
    Corrupt(String),
    /// A pack or spill file is shorter than its header/index claims.
    Truncated {
        /// Bytes the format requires to be present.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// A data page's checksum does not match the page table.
    BadPageChecksum {
        /// The 0-based page number.
        page: usize,
    },
    /// The embedded index points outside the pack's data region.
    IndexOutOfBounds {
        /// Entry id whose index row is out of bounds.
        id: usize,
        /// Claimed record offset within the data region.
        offset: u64,
        /// Claimed record length.
        len: u64,
        /// Actual data-region length.
        data_len: u64,
    },
    /// The spill segment ends in a torn (partially written) record.
    SpillTornTail {
        /// Byte offset of the first torn record.
        offset: u64,
    },
    /// The write-ahead log ends in a torn (partially written) record.
    WalTornTail {
        /// Byte offset of the first torn record.
        offset: u64,
    },
    /// A mutation addressed an entry id that does not exist.
    NoSuchEntry {
        /// The missing id.
        id: usize,
    },
    /// A write was attempted on a store opened read-only.
    ReadOnly,
    /// The store degraded to read-only after a WAL append/fsync failure:
    /// reads keep serving the last committed snapshot while the
    /// supervised checkpointer tries to rebuild the log; writes are
    /// refused until it succeeds. The message is the original failure.
    Degraded(String),
    /// A replace would duplicate content already live under another id
    /// (inserts dedup idempotently; replaces conflict instead).
    DuplicateContent {
        /// The id already carrying this content hash.
        id: usize,
    },
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt repository: {m}"),
            StoreError::Truncated { expected, actual } => {
                write!(f, "truncated file: need {expected} bytes, found {actual}")
            }
            StoreError::BadPageChecksum { page } => {
                write!(f, "page {page} checksum mismatch")
            }
            StoreError::IndexOutOfBounds {
                id,
                offset,
                len,
                data_len,
            } => write!(
                f,
                "index entry {id} points past EOF ({len} bytes at offset {offset}, \
                 data region is {data_len} bytes)"
            ),
            StoreError::SpillTornTail { offset } => {
                write!(f, "spill segment has a torn record at offset {offset}")
            }
            StoreError::WalTornTail { offset } => {
                write!(f, "write-ahead log has a torn record at offset {offset}")
            }
            StoreError::NoSuchEntry { id } => {
                write!(f, "no entry with id {id}")
            }
            StoreError::ReadOnly => {
                write!(f, "repository is read-only (serve with --writable)")
            }
            StoreError::Degraded(m) => {
                write!(
                    f,
                    "store is degraded after a WAL failure ({m}); retry later"
                )
            }
            StoreError::DuplicateContent { id } => {
                write!(f, "identical hypergraph already stored under entry {id}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_diagnostics() {
        let t = StoreError::Truncated {
            expected: 88,
            actual: 12,
        };
        assert!(t.to_string().contains("88"), "{t}");
        let p = StoreError::BadPageChecksum { page: 3 };
        assert!(p.to_string().contains("page 3"), "{p}");
        let i = StoreError::IndexOutOfBounds {
            id: 7,
            offset: 100,
            len: 50,
            data_len: 64,
        };
        let msg = i.to_string();
        assert!(msg.contains('7') && msg.contains("past EOF"), "{msg}");
        let s = StoreError::SpillTornTail { offset: 42 };
        assert!(s.to_string().contains("offset 42"), "{s}");
    }
}
