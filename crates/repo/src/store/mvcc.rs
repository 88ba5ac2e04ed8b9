//! MVCC over a repository: durable writes through the [`super::wal`]
//! write-ahead log, snapshot-isolated reads through immutable
//! generations.
//!
//! ## Shape
//!
//! A generation is a [`Repository`]: an immutable pack **base** plus a
//! copy-on-write **overlay** of committed mutations, as of one commit
//! `seq`. Every committed write produces a fresh generation — same base,
//! overlay plus this write — and swaps it in atomically; readers clone an `Arc` to
//! whatever generation is current and keep reading it unperturbed while
//! later commits land. In-flight keyset pages, filters, and analyses
//! therefore never observe torn or half-applied state, and a cursor can
//! pin the exact generation it started on ([`MvccStore::snapshot_at`])
//! for as long as the store retains it.
//!
//! ## Commit protocol
//!
//! Writers serialize on one mutex. A commit (1) validates against the
//! current snapshot, (2) appends one record to the WAL and `fdatasync`s
//! it — *the* durability point: a crash after the sync preserves the
//! write, a crash before it never acknowledged anything — then (3)
//! publishes the next snapshot generation. Ids are assigned
//! monotonically and never reused; inserts are idempotent by content
//! hash (posting the same hypergraph twice returns the first id).
//!
//! ## Checkpoint = compaction
//!
//! A background checkpointer (or [`MvccStore::checkpoint_now`]) folds
//! the current snapshot into a brand-new pack file, which is also
//! exactly pack *compaction*: removed entries disappear, replaced ones
//! are rewritten, pages are repacked densely. The store then swaps the
//! new pack in as base, keeps only overlay entries committed after the
//! checkpointed seq, and rewrites the WAL down to those, so the log
//! stays proportional to un-checkpointed work. On open, a non-empty WAL
//! is replayed over the base and (by default) immediately checkpointed
//! into pack pages. Entries the opened repository holds in its own
//! overlay (one built with [`Repository::insert`]) are folded at open
//! too, so no commit clones a large overlay.
//!
//! A checkpoint costs what it changes, plus one copy of the rest:
//!
//! * **Copied.** A base row no overlay entry shadows is carried by its
//!   bytes (`pack::Record::Carried`): meta fields, content hash and
//!   analysis from the index, record bytes from the old pack's data
//!   region. Only overlay entries are serialized. Nothing is parsed.
//! * **Verified.** Every source page is checked against the old page
//!   table before a byte of it is reused; a rotten page fails the
//!   checkpoint with [`StoreError::BadPageChecksum`] — the served pack
//!   and the WAL stay as they were, the overlay keeps answering.
//! * **Resident.** Pack slots hold `Arc<Entry>`. The new base adopts
//!   the old base's hydrated slot for every carried row and the
//!   overlay's entry for every folded one, so reads after a checkpoint
//!   re-parse nothing and the displaced base owns nothing but its
//!   index.
//! * **Freed elsewhere.** A commit never pays for a generation's death:
//!   snapshots it evicts are dropped after the writer lock is released,
//!   and a displaced base is parked in `Inner::displaced` until the
//!   checkpointer thread — which wakes every 200 ms anyway — finds it
//!   has no other holder and lets it go there.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use hyperbench_core::Hypergraph;
use hyperbench_telemetry::{log_error, log_info};

use crate::metrics::metrics;
use crate::{Entry, Live, Repository};

use super::pack::{self, content_hash_of, PackStore, DEFAULT_PAGE_SIZE};
use super::wal::{self, WalEntry, WalRecord, WalWriter};
use super::StoreError;

/// Tuning knobs for a writable store (see [`MvccStore::open`]).
#[derive(Debug, Clone)]
pub struct MvccOptions {
    /// Path of the write-ahead log.
    pub wal: PathBuf,
    /// Pack file checkpoints rewrite. `None` disables checkpointing
    /// (the WAL then grows until the process ends).
    pub checkpoint_pack: Option<PathBuf>,
    /// Overlay size that triggers a background checkpoint.
    pub overlay_limit: usize,
    /// Displaced snapshots kept alive for cursor pinning.
    pub retained_snapshots: usize,
    /// Fold a non-empty WAL into pack pages immediately at open.
    pub checkpoint_on_open: bool,
}

impl MvccOptions {
    /// Options for a WAL at `wal`, checkpointing into `pack`.
    pub fn new(wal: PathBuf, pack: Option<PathBuf>) -> MvccOptions {
        MvccOptions {
            wal,
            checkpoint_pack: pack,
            overlay_limit: 1024,
            retained_snapshots: 64,
            checkpoint_on_open: true,
        }
    }
}

/// The outcome of [`MvccStore::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// A new entry was committed under this id at this seq.
    Created { id: usize, seq: u64 },
    /// An identical hypergraph (by content hash) already exists; no
    /// write happened.
    Existing { id: usize },
}

impl Inserted {
    /// The id the caller should address, new or pre-existing.
    pub fn id(&self) -> usize {
        match self {
            Inserted::Created { id, .. } | Inserted::Existing { id } => *id,
        }
    }

    /// Whether this insert committed a new entry.
    pub fn created(&self) -> bool {
        matches!(self, Inserted::Created { .. })
    }
}

/// Receipt for a committed [`MvccStore::replace`] /
/// [`MvccStore::remove`]: the commit seq plus the content hash the
/// write displaced. The hash is captured *inside* the serialized
/// commit (under the writer lock), so cache eviction keyed on it sees
/// exactly the value this write overwrote — a snapshot read taken
/// before the call could race a concurrent write to the same id and
/// leave an intermediate hash's cached analyses un-evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Committed {
    /// The WAL sequence number this write committed at.
    pub seq: u64,
    /// Content hash of the entry this write displaced (`None` when the
    /// id had no live content hash).
    pub displaced_hash: Option<u64>,
}

/// Writer-side state, serialized under one mutex.
struct Writer {
    /// `None` on a read-only store.
    wal: Option<WalWriter>,
    /// Records since the last checkpoint (mirrors the WAL file).
    pending: Vec<WalRecord>,
    next_seq: u64,
    next_id: usize,
    /// content hash → live ids carrying it (idempotent-create index).
    hashes: HashMap<u64, Vec<usize>>,
    /// When the current snapshot became current (age metric).
    current_since: Instant,
}

/// Signal block the background checkpointer sleeps on.
struct CheckpointSignal {
    requested: bool,
}

struct Inner {
    current: RwLock<Arc<Repository>>,
    retained: Mutex<VecDeque<Arc<Repository>>>,
    /// Bases checkpoints swapped out. The extra handle parked here means
    /// no reader or writer dropping an old generation is ever the one to
    /// free a base; the checkpointer thread is
    /// ([`Inner::release_displaced`]).
    displaced: Mutex<Vec<Arc<PackStore>>>,
    writer: Mutex<Writer>,
    signal: Mutex<CheckpointSignal>,
    wake: Condvar,
    shutdown: AtomicBool,
    checkpoint_pack: Option<PathBuf>,
    wal_path: Option<PathBuf>,
    overlay_limit: usize,
    retained_snapshots: usize,
    /// `Some(reason)` while the store is degraded: a WAL append/fsync
    /// failed, so writes are refused (503 at the HTTP layer) while
    /// reads keep serving the last committed snapshot. The supervisor
    /// thread clears it by rebuilding the log from `Writer::pending`.
    degraded: Mutex<Option<String>>,
}

impl Inner {
    /// Flips healthy→degraded (idempotent) with the WAL failure that
    /// caused it, and wakes the supervisor to attempt recovery.
    fn enter_degraded(&self, reason: String) {
        let mut degraded = self.degraded.lock().expect("degraded flag");
        if degraded.is_none() {
            log_error!("mvcc", "WAL failure; store degraded to read-only"; error = reason);
            let m = metrics();
            m.store_degraded.set(1);
            m.store_degraded_total.inc();
            *degraded = Some(reason);
            self.wake.notify_all();
        }
    }

    /// Lets go of every displaced base nobody else holds any more.
    fn release_displaced(&self) {
        self.displaced
            .lock()
            .expect("displaced bases")
            .retain(|base| Arc::strong_count(base) > 1);
    }
}

/// A mutable repository: WAL-durable writes, snapshot-isolated reads,
/// background checkpointing into pack pages. See the module docs for
/// the full protocol.
pub struct MvccStore {
    inner: Arc<Inner>,
    checkpointer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for MvccStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("MvccStore")
            .field("seq", &snap.seq())
            .field("len", &snap.len())
            .field("writable", &self.writable())
            .finish()
    }
}

impl MvccStore {
    /// Wraps a base repository read-only: snapshots work, writes return
    /// [`StoreError::ReadOnly`]. This is what `serve` uses without
    /// `--writable` — the server code runs one code path either way.
    pub fn read_only(base: Repository) -> MvccStore {
        let next_id = base.next_id();
        MvccStore {
            inner: Arc::new(Inner {
                current: RwLock::new(Arc::new(base)),
                retained: Mutex::new(VecDeque::new()),
                displaced: Mutex::new(Vec::new()),
                writer: Mutex::new(Writer {
                    wal: None,
                    pending: Vec::new(),
                    next_seq: 1,
                    next_id,
                    hashes: HashMap::new(),
                    current_since: Instant::now(),
                }),
                signal: Mutex::new(CheckpointSignal { requested: false }),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                checkpoint_pack: None,
                wal_path: None,
                overlay_limit: usize::MAX,
                retained_snapshots: 0,
                degraded: Mutex::new(None),
            }),
            checkpointer: Mutex::new(None),
        }
    }

    /// Opens a writable store over `base`: recovers the WAL (dropping a
    /// torn tail) and replays committed records into the overlay. When
    /// a pack path is set, the overlay — the replayed records and any
    /// entries `base` held in its own overlay — is then folded straight
    /// into fresh pack pages (replayed records only with
    /// `checkpoint_on_open`). A background checkpointer thread is
    /// started either way.
    pub fn open(base: Repository, opts: MvccOptions) -> Result<MvccStore, StoreError> {
        let fold_resident = !base.overlay.is_empty();
        let mut current = base;
        // `wal::recover` logs the byte offset + frame index of any torn
        // tail it drops and counts it in `wal_torn_tail_recoveries_total`.
        let recovery = wal::recover(&opts.wal)?;
        // Build the idempotent-create index over the base…
        let mut hashes: HashMap<u64, Vec<usize>> = HashMap::new();
        for m in current.metas() {
            if let Some(h) = current.content_hash(m.id) {
                hashes.entry(h).or_default().push(m.id);
            }
        }
        // …then replay the log over it. Replay borrows the recovered
        // records (cloning only each entry payload into the overlay)
        // so the same `Vec` can seed `writer.pending` afterwards — the
        // log is read and frame-decoded exactly once per open.
        for record in &recovery.records {
            let (id, live) = match record {
                WalRecord::Insert { entry, .. } | WalRecord::Replace { entry, .. } => {
                    let entry = Arc::new(entry.clone().into_entry()?);
                    let hash = Some(content_hash_of(&entry.hypergraph));
                    (entry.id, Some(Live { entry, hash }))
                }
                WalRecord::Remove { id, .. } => (*id as usize, None),
            };
            remove_hash(&mut hashes, current.content_hash(id), id);
            if let Some(live) = &live {
                hashes.entry(live.hash()).or_default().push(id);
            }
            current.seq = record.seq();
            current.put(current.seq, id, live);
        }
        // The base pack keeps the id high-water mark, so an id removed
        // before the last checkpoint is not handed out again.
        let (seq, next_id) = (current.seq, current.next_id());
        let writer = WalWriter::open_append(&opts.wal, recovery.torn_tail)?;
        metrics().wal_size_bytes.set(writer.size()? as i64);
        let store = MvccStore {
            inner: Arc::new(Inner {
                current: RwLock::new(Arc::new(current)),
                retained: Mutex::new(VecDeque::new()),
                displaced: Mutex::new(Vec::new()),
                writer: Mutex::new(Writer {
                    wal: Some(writer),
                    pending: recovery.records,
                    next_seq: seq + 1,
                    next_id,
                    hashes,
                    current_since: Instant::now(),
                }),
                signal: Mutex::new(CheckpointSignal { requested: false }),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                checkpoint_pack: opts.checkpoint_pack.clone(),
                wal_path: Some(opts.wal.clone()),
                overlay_limit: opts.overlay_limit.max(1),
                retained_snapshots: opts.retained_snapshots,
                degraded: Mutex::new(None),
            }),
            checkpointer: Mutex::new(None),
        };
        metrics().mvcc_snapshot_seq.set(seq as i64);
        if (opts.checkpoint_on_open || fold_resident) && opts.checkpoint_pack.is_some() {
            // Replay lands in pack pages before the store serves a
            // single request: restart-after-crash leaves no WAL debt.
            run_checkpoint(&store.inner)?;
        }
        // The supervisor thread runs for every writable store — with a
        // pack it checkpoints, and in either configuration it is the
        // degraded-state recovery path (rebuilding the WAL after an
        // append/fsync failure), so it must exist even WAL-only.
        {
            let inner = Arc::clone(&store.inner);
            let handle = std::thread::Builder::new()
                .name("hyperbench-checkpointer".to_string())
                .spawn(move || checkpointer_main(&inner))
                .expect("spawn checkpointer thread");
            *store.checkpointer.lock().expect("checkpointer") = Some(handle);
        }
        Ok(store)
    }

    /// `Some(reason)` while the store is degraded (writes refused after
    /// a WAL failure; reads unaffected). Cleared by the supervisor once
    /// it rebuilds the log.
    pub fn degraded(&self) -> Option<String> {
        self.inner.degraded.lock().expect("degraded flag").clone()
    }

    /// Whether writes are accepted.
    pub fn writable(&self) -> bool {
        self.inner.wal_path.is_some()
    }

    /// The current generation. Readers hold the `Arc` for as long as
    /// they page; later commits never disturb it.
    pub fn snapshot(&self) -> Arc<Repository> {
        Arc::clone(&self.inner.current.read().expect("current snapshot"))
    }

    /// The generation at exactly `seq`, while the store still retains
    /// it — the cursor-pinning lookup. Returns `None` once evicted
    /// (callers fall back to [`MvccStore::snapshot`]).
    pub fn snapshot_at(&self, seq: u64) -> Option<Arc<Repository>> {
        let current = self.snapshot();
        if current.seq == seq {
            return Some(current);
        }
        self.inner
            .retained
            .lock()
            .expect("retained snapshots")
            .iter()
            .find(|s| s.seq == seq)
            .cloned()
    }

    /// Inserts a hypergraph, idempotently by content hash: when an
    /// identical hypergraph is already live, no write happens and the
    /// existing id comes back as [`Inserted::Existing`].
    pub fn insert(
        &self,
        hypergraph: Hypergraph,
        collection: impl Into<String>,
        class: impl Into<String>,
    ) -> Result<Inserted, StoreError> {
        let collection = collection.into();
        let class = class.into();
        let hash = content_hash_of(&hypergraph);
        let (outcome, _) = self.commit(|writer, snapshot| {
            if let Some(ids) = writer.hashes.get(&hash) {
                if let Some(&id) = ids.iter().find(|&&id| snapshot.contains(id)) {
                    return Ok(CommitPlan::NoOp(Inserted::Existing { id }));
                }
            }
            let id = writer.next_id;
            let entry = Entry {
                id,
                collection: collection.clone(),
                class: class.clone(),
                hypergraph: hypergraph.clone(),
                analysis: None,
            };
            let seq = writer.next_seq;
            Ok(CommitPlan::Write {
                record: WalRecord::Insert {
                    seq,
                    entry: WalEntry::of(&entry),
                },
                apply: Apply {
                    id,
                    live: Some(Live {
                        entry: Arc::new(entry),
                        hash: Some(hash),
                    }),
                },
                outcome: Inserted::Created { id, seq },
            })
        })?;
        Ok(outcome)
    }

    /// Replaces entry `id` wholesale (collection, class, hypergraph;
    /// any analysis attached to the old payload is dropped — it
    /// described the old hypergraph). [`StoreError::NoSuchEntry`] when
    /// absent. The returned [`Committed`] carries the displaced
    /// content hash for race-free cache eviction.
    pub fn replace(
        &self,
        id: usize,
        hypergraph: Hypergraph,
        collection: impl Into<String>,
        class: impl Into<String>,
    ) -> Result<Committed, StoreError> {
        let collection = collection.into();
        let class = class.into();
        let hash = content_hash_of(&hypergraph);
        let (outcome, displaced_hash) = self.commit(|writer, snapshot| {
            if !snapshot.contains(id) {
                return Err(StoreError::NoSuchEntry { id });
            }
            // Content hashes stay unique among live entries (inserts
            // dedup); a replace that would break that is a conflict.
            if let Some(ids) = writer.hashes.get(&hash) {
                if let Some(&other) = ids
                    .iter()
                    .find(|&&other| other != id && snapshot.contains(other))
                {
                    return Err(StoreError::DuplicateContent { id: other });
                }
            }
            let entry = Entry {
                id,
                collection: collection.clone(),
                class: class.clone(),
                hypergraph: hypergraph.clone(),
                analysis: None,
            };
            let seq = writer.next_seq;
            Ok(CommitPlan::Write {
                record: WalRecord::Replace {
                    seq,
                    entry: WalEntry::of(&entry),
                },
                apply: Apply {
                    id,
                    live: Some(Live {
                        entry: Arc::new(entry),
                        hash: Some(hash),
                    }),
                },
                outcome: Inserted::Created { id, seq },
            })
        })?;
        match outcome {
            Inserted::Created { seq, .. } => Ok(Committed {
                seq,
                displaced_hash,
            }),
            Inserted::Existing { .. } => unreachable!("replace always writes"),
        }
    }

    /// Removes entry `id`. [`StoreError::NoSuchEntry`] when absent.
    /// The returned [`Committed`] carries the displaced content hash
    /// for race-free cache eviction.
    pub fn remove(&self, id: usize) -> Result<Committed, StoreError> {
        let (outcome, displaced_hash) = self.commit(|writer, snapshot| {
            if !snapshot.contains(id) {
                return Err(StoreError::NoSuchEntry { id });
            }
            let seq = writer.next_seq;
            Ok(CommitPlan::Write {
                record: WalRecord::Remove { seq, id: id as u64 },
                apply: Apply { id, live: None },
                outcome: Inserted::Created { id, seq },
            })
        })?;
        match outcome {
            Inserted::Created { seq, .. } => Ok(Committed {
                seq,
                displaced_hash,
            }),
            Inserted::Existing { .. } => unreachable!("remove always writes"),
        }
    }

    /// Runs one checkpoint synchronously. Returns `true` when work was
    /// done, `false` when the overlay was already empty. Requires a
    /// configured checkpoint pack path.
    pub fn checkpoint_now(&self) -> Result<bool, StoreError> {
        run_checkpoint(&self.inner)
    }

    /// The single commit path: validate → WAL append + fsync →
    /// publish the next generation. Returns the outcome plus the
    /// content hash the write displaced (captured under the writer
    /// lock — see [`Committed`]).
    fn commit(
        &self,
        plan: impl FnOnce(&Writer, &Repository) -> Result<CommitPlan, StoreError>,
    ) -> Result<(Inserted, Option<u64>), StoreError> {
        let mut writer = self.inner.writer.lock().expect("writer");
        if writer.wal.is_none() {
            return Err(StoreError::ReadOnly);
        }
        // A degraded store refuses writes up front: the WAL is known
        // broken, and appending behind an unsynced failure could
        // acknowledge a write that never becomes durable.
        if let Some(reason) = &*self.inner.degraded.lock().expect("degraded flag") {
            metrics().store_degraded_rejects.inc();
            return Err(StoreError::Degraded(reason.clone()));
        }
        let snapshot = self.snapshot();
        let (record, apply, outcome) = match plan(&writer, &snapshot)? {
            CommitPlan::NoOp(outcome) => return Ok((outcome, None)),
            CommitPlan::Write {
                record,
                apply,
                outcome,
            } => (record, apply, outcome),
        };
        // Durability point: the record is on disk (and synced) before
        // any reader can observe the new generation.
        let wal = writer.wal.as_mut().expect("checked writable");
        let bytes = match wal.append(&record) {
            Ok(bytes) => bytes,
            Err(e) => {
                // The append (or its fsync) failed: the log may hold a
                // partial frame and the record was never acknowledged.
                // Flip to the explicit degraded state — this write is
                // lost (the client sees a retryable 503), reads keep
                // serving, and the supervisor rebuilds the log from
                // `pending` (which does not contain this record).
                let reason = e.to_string();
                self.inner.enter_degraded(reason.clone());
                return Err(StoreError::Degraded(reason));
            }
        };
        let m = metrics();
        m.wal_appends.inc();
        m.wal_append_bytes.add(bytes as u64);
        m.wal_size_bytes.add(bytes as i64);
        let seq = record.seq();
        writer.pending.push(record);
        writer.next_seq = seq + 1;
        if apply.id >= writer.next_id {
            writer.next_id = apply.id + 1;
        }
        // Maintain the idempotent-create index. The displaced hash is
        // read here, inside the commit, so it names exactly the
        // content this write overwrote.
        let displaced_hash = snapshot.content_hash(apply.id);
        remove_hash(&mut writer.hashes, displaced_hash, apply.id);
        if let Some(live) = &apply.live {
            writer.hashes.entry(live.hash()).or_default().push(apply.id);
        }
        // Publish the next generation.
        let next = Arc::new(snapshot.next(seq, apply.id, apply.live));
        let overlay_len = next.overlay.len();
        let displaced = {
            let mut current = self.inner.current.write().expect("current snapshot");
            std::mem::replace(&mut *current, next)
        };
        m.mvcc_snapshot_age_us
            .observe(writer.current_since.elapsed().as_micros() as u64);
        writer.current_since = Instant::now();
        let evicted: Vec<Arc<Repository>> = {
            let mut retained = self.inner.retained.lock().expect("retained snapshots");
            retained.push_back(displaced);
            let excess = retained.len().saturating_sub(self.inner.retained_snapshots);
            let evicted = retained.drain(..excess).collect();
            m.mvcc_snapshots_active.set(retained.len() as i64 + 1);
            evicted
        };
        m.mvcc_snapshot_seq.set(seq as i64);
        drop(writer);
        // Whatever dies with an evicted generation dies outside the
        // writer lock: the next commit is not kept waiting for a free.
        drop(evicted);
        if overlay_len >= self.inner.overlay_limit && self.inner.checkpoint_pack.is_some() {
            self.inner.signal.lock().expect("signal").requested = true;
            self.inner.wake.notify_one();
        }
        Ok((outcome, displaced_hash))
    }
}

impl Drop for MvccStore {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        if let Some(handle) = self.checkpointer.lock().expect("checkpointer").take() {
            let _ = handle.join();
        }
    }
}

/// What a commit closure decided to do.
//
// The variants differ in size (a `WalRecord` embeds the full entry),
// but a plan lives for one commit on the stack — boxing the record
// would put an allocation on every write for nothing.
#[allow(clippy::large_enum_variant)]
enum CommitPlan {
    /// Nothing to write (idempotent hit); answer immediately.
    NoOp(Inserted),
    /// Append `record`, apply `apply` to the overlay, answer `outcome`.
    Write {
        record: WalRecord,
        apply: Apply,
        outcome: Inserted,
    },
}

/// The overlay mutation a committed record maps to.
struct Apply {
    id: usize,
    /// The new value and the content hash to index for it (`None` for
    /// removals).
    live: Option<Live>,
}

fn remove_hash(hashes: &mut HashMap<u64, Vec<usize>>, hash: Option<u64>, id: usize) {
    if let Some(h) = hash {
        if let Some(ids) = hashes.get_mut(&h) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                hashes.remove(&h);
            }
        }
    }
}

/// The background checkpointer, doubling as the degraded-state
/// supervisor: sleeps on the signal block, runs a checkpoint whenever
/// the overlay limit trips one, retries WAL recovery while the store
/// is degraded, exits on shutdown.
fn checkpointer_main(inner: &Inner) {
    loop {
        let requested = {
            let mut signal = inner.signal.lock().expect("signal");
            if !signal.requested
                && !inner.shutdown.load(Ordering::SeqCst)
                && inner.degraded.lock().expect("degraded flag").is_none()
            {
                signal = inner
                    .wake
                    .wait_timeout(signal, std::time::Duration::from_millis(200))
                    .expect("signal wait")
                    .0;
            }
            std::mem::take(&mut signal.requested)
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        inner.release_displaced();
        if inner.degraded.lock().expect("degraded flag").is_some() {
            if let Err(e) = recover_degraded(inner) {
                log_error!("mvcc", "degraded-state recovery failed; will retry"; error = e);
                // Back off before the next supervised attempt so a
                // persistently broken disk does not spin this thread.
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            continue;
        }
        // Every commit that lands *during* a checkpoint still sees the
        // untrimmed overlay and re-arms the request; what counts is the
        // overlay now.
        let due = requested
            && inner.checkpoint_pack.is_some()
            && inner
                .current
                .read()
                .expect("current snapshot")
                .overlay
                .len()
                >= inner.overlay_limit;
        if due {
            if let Err(e) = run_checkpoint(inner) {
                log_error!("mvcc", "background checkpoint failed"; error = e);
            }
        }
    }
}

/// The supervised restart path out of the degraded state: rebuild the
/// log atomically from `Writer::pending` (every acknowledged,
/// un-checkpointed record — the failed append never joined it), swap
/// in the fresh writer, and clear the flag. Runs under the writer lock
/// so no commit can interleave with the rebuild.
fn recover_degraded(inner: &Inner) -> Result<(), StoreError> {
    let Some(path) = inner.wal_path.as_ref() else {
        return Err(StoreError::Corrupt("degraded store has no WAL path".into()));
    };
    let mut writer = inner.writer.lock().expect("writer");
    let fresh = wal::rewrite(path, &writer.pending)?;
    let m = metrics();
    m.wal_size_bytes.set(fresh.size()? as i64);
    writer.wal = Some(fresh);
    let mut degraded = inner.degraded.lock().expect("degraded flag");
    if degraded.take().is_some() {
        m.store_degraded.set(0);
        m.store_recoveries.inc();
        log_info!("mvcc", "store recovered from degraded state";
            pending = writer.pending.len());
    }
    Ok(())
}

/// Folds the current snapshot into a fresh pack (also the pack's
/// compaction), swaps it in as base, trims the overlay and WAL down to
/// commits newer than the checkpointed seq. What is copied, verified
/// and kept resident is in the module docs.
///
/// Durability order matters: [`pack::write_records`] fsyncs the new
/// pack (data + directory entry) *before* this function rewrites the
/// WAL, so a power loss can never discard checkpointed records while
/// the pack that absorbed them is still volatile. A crash between the
/// two reopens the new pack under the old log; replaying records the
/// pack already absorbed is idempotent.
///
/// Portability note: the new pack is renamed over a path the current
/// base [`pack::PackStore`] still holds open (serving checkpoints back
/// into the served pack). That relies on POSIX rename-over-open-file
/// semantics — on Windows the rename fails, every checkpoint errors,
/// and the WAL grows without bound. The writable store is unix-only
/// today; lifting that would need generation-numbered pack files plus
/// a pointer swap instead of rename-in-place.
fn run_checkpoint(inner: &Inner) -> Result<bool, StoreError> {
    let Some(pack_path) = inner.checkpoint_pack.as_ref() else {
        return Err(StoreError::Corrupt(
            "no checkpoint pack path configured".to_string(),
        ));
    };
    let started = Instant::now();
    // The expensive part — copying every live record into new pack
    // pages — runs against a pinned snapshot, outside every lock:
    // commits keep landing while the pack is written.
    let snapshot = Arc::clone(&inner.current.read().expect("current snapshot"));
    if snapshot.overlay.is_empty() {
        return Ok(false);
    }
    hyperbench_fault::fail_point!("checkpoint.run", |msg: String| Err(StoreError::Io(
        std::io::Error::other(format!("failpoint checkpoint.run: {msg}"))
    )));
    let checkpoint_seq = snapshot.seq;
    pack::write_records(
        snapshot.records(),
        snapshot.next_id(),
        pack_path,
        DEFAULT_PAGE_SIZE,
    )?;
    let folded = PackStore::open(pack_path)?;
    folded.adopt(snapshot.records());
    let new_base = Arc::new(folded);
    drop(snapshot);
    // Swap under the writer lock so no commit interleaves with the
    // WAL rewrite.
    let mut writer = inner.writer.lock().expect("writer");
    writer.pending.retain(|r| r.seq() > checkpoint_seq);
    if let Some(path) = inner.wal_path.as_ref() {
        writer.wal = Some(wal::rewrite(path, &writer.pending)?);
        metrics()
            .wal_size_bytes
            .set(writer.wal.as_ref().expect("just set").size()? as i64);
    }
    let replaced = {
        let mut current = inner.current.write().expect("current snapshot");
        let overlay = current
            .overlay
            .iter()
            .filter(|(_, (seq, _))| *seq > checkpoint_seq)
            .map(|(id, v)| (*id, v.clone()))
            .collect();
        let next = Arc::new(Repository::over(new_base, current.seq, overlay));
        std::mem::replace(&mut *current, next)
    };
    drop(writer);
    inner
        .displaced
        .lock()
        .expect("displaced bases")
        .push(Arc::clone(&replaced.base));
    drop(replaced);
    let m = metrics();
    m.wal_checkpoints.inc();
    m.wal_checkpoint_us
        .observe(started.elapsed().as_micros() as u64);
    log_info!("mvcc", "checkpoint complete"; seq = checkpoint_seq,
        elapsed_us = started.elapsed().as_micros() as u64);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::EntryMeta;
    use hyperbench_core::builder::hypergraph_from_edges;
    use std::collections::BTreeMap;
    use std::path::Path;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hyperbench-mvcc-test-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    fn chain(n: usize) -> Hypergraph {
        let names: Vec<String> = (0..=n).map(|i| format!("v{i}")).collect();
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..n {
            b.add_edge(
                &format!("e{i}"),
                &[names[i].as_str(), names[i + 1].as_str()],
            );
        }
        b.build()
    }

    fn writable_store(dir: &Path, base: Repository) -> MvccStore {
        let opts = MvccOptions::new(dir.join("repo.wal"), Some(dir.join("repo.pack")));
        MvccStore::open(base, opts).unwrap()
    }

    /// What a scan must report for one live entry, field for field.
    type Row = (
        usize,
        String,
        String,
        usize,
        usize,
        usize,
        Option<(Option<usize>, usize, usize)>,
    );

    fn row_of(m: &EntryMeta<'_>) -> Row {
        (
            m.id,
            m.collection.to_string(),
            m.class.to_string(),
            m.vertices,
            m.edges,
            m.arity,
            m.analysis
                .map(|r| (r.hw_upper, r.hw_lower, r.properties.bip)),
        )
    }

    /// A made-up analysis whose fields depend on `n`.
    fn record(n: usize) -> crate::AnalysisRecord {
        crate::AnalysisRecord {
            sizes: hyperbench_core::stats::SizeMetrics {
                vertices: n + 1,
                edges: n,
                arity: 2,
            },
            properties: hyperbench_core::properties::StructuralProperties {
                degree: 2,
                bip: n % 3,
                bmip3: 0,
                bmip4: 0,
                vc_dim: None,
            },
            hw_upper: (!n.is_multiple_of(4)).then_some(n % 4),
            hw_lower: 1 + n % 2,
            hw_steps: Vec::new(),
            hw_timed_out: n.is_multiple_of(4),
        }
    }

    fn entry(id: usize, n: usize) -> Entry {
        Entry {
            id,
            collection: format!("c{}", n % 3),
            class: format!("k{}", n % 2),
            hypergraph: chain(1 + n % 4),
            analysis: n.is_multiple_of(2).then(|| record(n)),
        }
    }

    static MERGE_CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Random create/replace/remove schedules over a paged base with
        // sparse ids, touching ids before, between and after the base's:
        // every generation's `metas()` equals a `BTreeMap` model, and so
        // does every pinned generation after the schedule moved on.
        #[test]
        fn snapshot_metas_equal_a_model_at_every_generation(
            base_ids in proptest::prelude::any::<u64>(),
            ops in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 0..40)
        ) {
            let case = MERGE_CASE.fetch_add(1, Ordering::Relaxed);
            let dir = tmpdir(&format!("merge-{case}"));
            let mut memory = Repository::new();
            let mut model: BTreeMap<usize, Row> = BTreeMap::new();
            // Base ids: a random subset of 4..40, so 0..4 come before it.
            for id in (4..40).filter(|id| base_ids >> id & 1 == 1) {
                let e = entry(id, id);
                model.insert(id, row_of(&EntryMeta::of(&e)));
                memory.insert_entry(e).unwrap();
            }
            let pack = dir.join("base.pack");
            pack::write_pack(&memory, &pack).unwrap();
            let mut generations = vec![(
                Arc::new(Repository::open_pack(&pack).unwrap()),
                model.clone(),
            )];
            for (i, op) in ops.iter().enumerate() {
                let id = (*op >> 8) as usize % 44;
                let seq = i as u64 + 1;
                let live = if op % 3 == 0 {
                    model.remove(&id);
                    None
                } else {
                    let e = entry(id, *op as usize >> 16);
                    model.insert(id, row_of(&EntryMeta::of(&e)));
                    Some(Live {
                        hash: Some(content_hash_of(&e.hypergraph)),
                        entry: Arc::new(e),
                    })
                };
                let next = generations.last().unwrap().0.next(seq, id, live);
                generations.push((Arc::new(next), model.clone()));
            }
            for (snap, model) in &generations {
                let scanned: Vec<Row> = snap.metas().map(|m| row_of(&m)).collect();
                let expected: Vec<Row> = model.values().cloned().collect();
                proptest::prop_assert_eq!(&scanned, &expected, "generation {}", snap.seq());
                proptest::prop_assert_eq!(snap.len(), model.len());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn writes_are_snapshot_isolated() {
        let dir = tmpdir("isolation");
        let store = writable_store(&dir, Repository::new());
        let a = store.insert(triangle(), "gen", "CQ Application").unwrap();
        assert!(a.created());
        let pinned = store.snapshot();
        assert_eq!(pinned.len(), 1);
        let b = store.insert(chain(2), "gen", "CQ Application").unwrap();
        store.remove(a.id()).unwrap();
        // The pinned generation still sees exactly the world at its seq.
        assert_eq!(pinned.len(), 1);
        assert!(pinned.contains(a.id()));
        assert!(!pinned.contains(b.id()));
        // The current generation sees the later commits.
        let now = store.snapshot();
        assert_eq!(now.len(), 1);
        assert!(!now.contains(a.id()));
        assert!(now.contains(b.id()));
        // Cursor pinning resolves retained generations by seq.
        assert_eq!(store.snapshot_at(pinned.seq()).unwrap().seq(), pinned.seq());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_is_idempotent_by_content_hash() {
        let dir = tmpdir("idempotent");
        let store = writable_store(&dir, Repository::new());
        let first = store.insert(triangle(), "gen", "CQ Application").unwrap();
        let again = store.insert(triangle(), "gen", "CQ Application").unwrap();
        assert!(first.created());
        assert_eq!(again, Inserted::Existing { id: first.id() });
        assert_eq!(store.snapshot().len(), 1);
        // Removing frees the hash for a fresh insert under a new id.
        store.remove(first.id()).unwrap();
        let third = store.insert(triangle(), "gen", "CQ Application").unwrap();
        assert!(third.created());
        assert!(third.id() > first.id(), "ids are never reused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_writes_survive_reopen_and_checkpoint_into_the_pack() {
        let dir = tmpdir("reopen");
        let wal = dir.join("repo.wal");
        let pack = dir.join("repo.pack");
        {
            let mut opts = MvccOptions::new(wal.clone(), Some(pack.clone()));
            opts.checkpoint_on_open = false;
            let store = MvccStore::open(Repository::new(), opts).unwrap();
            store.insert(triangle(), "gen", "CQ Application").unwrap();
            store.insert(chain(3), "gen", "CQ Application").unwrap();
            store.remove(0).unwrap();
        }
        assert!(!pack.exists(), "no checkpoint ran in the first lifetime");
        // Reopen: WAL replays, checkpoint-on-open folds it into pages.
        let store = writable_store(&dir, Repository::new());
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap.contains(1));
        assert!(!snap.contains(0));
        assert!(pack.exists(), "checkpoint-on-open wrote the pack");
        // The WAL shrank to nothing; the pack alone carries the state.
        assert!(wal::read_all(&wal).unwrap().is_empty());
        let packed = Repository::open_pack(&pack).unwrap();
        assert_eq!(packed.len(), 1);
        assert_eq!(packed.entry(1).hypergraph.num_edges(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_preserves_pinned_snapshots_and_later_commits() {
        let dir = tmpdir("ckpt");
        let store = writable_store(&dir, Repository::new());
        for i in 0..5 {
            store.insert(chain(i + 1), "gen", "CQ Application").unwrap();
        }
        let pinned = store.snapshot();
        assert!(store.checkpoint_now().unwrap());
        // Post-checkpoint: same visible state, overlay folded away.
        let now = store.snapshot();
        assert_eq!(now.len(), 5);
        assert_eq!(now.seq(), pinned.seq());
        assert!(now.overlay.is_empty());
        // The pinned pre-checkpoint snapshot still reads fine.
        assert_eq!(pinned.len(), 5);
        assert_eq!(
            pinned.try_get(2).unwrap().unwrap().hypergraph.num_edges(),
            3
        );
        // Writes after the checkpoint overlay the new base.
        store.remove(0).unwrap();
        assert_eq!(store.snapshot().len(), 4);
        assert!(store.checkpoint_now().unwrap());
        assert_eq!(store.snapshot().len(), 4);
        assert!(!store.checkpoint_now().unwrap(), "empty overlay is a no-op");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_store_rejects_writes() {
        let mut base = Repository::new();
        base.insert(triangle(), "gen", "CQ Application");
        let store = MvccStore::read_only(base);
        assert!(!store.writable());
        assert!(matches!(
            store.insert(chain(2), "gen", "CQ Application"),
            Err(StoreError::ReadOnly)
        ));
        assert!(matches!(store.remove(0), Err(StoreError::ReadOnly)));
        assert_eq!(store.snapshot().len(), 1);
    }

    #[test]
    fn replace_is_visible_and_drops_stale_analysis() {
        let dir = tmpdir("replace");
        let mut base = Repository::new();
        let id = base.insert(triangle(), "gen", "CQ Application");
        base.set_analysis(
            id,
            crate::analysis::analyze_instance(
                &triangle(),
                &crate::analysis::AnalysisConfig::default(),
            ),
        );
        let store = writable_store(&dir, base);
        assert!(store.snapshot().get(id).unwrap().analysis.is_some());
        store
            .replace(id, chain(4), "regen", "CQ Application")
            .unwrap();
        let snap = store.snapshot();
        let e = snap.get(id).unwrap();
        assert_eq!(e.collection, "regen");
        assert_eq!(e.hypergraph.num_edges(), 4);
        assert!(e.analysis.is_none(), "analysis of the old payload dropped");
        assert!(matches!(
            store.replace(99, triangle(), "x", "y"),
            Err(StoreError::NoSuchEntry { id: 99 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_and_remove_report_the_displaced_hash() {
        let dir = tmpdir("displaced");
        let store = writable_store(&dir, Repository::new());
        let a = store.insert(triangle(), "gen", "CQ Application").unwrap();
        let triangle_hash = content_hash_of(&triangle());
        // Replace reports the hash it overwrote, not the new one…
        let c = store
            .replace(a.id(), chain(4), "gen", "CQ Application")
            .unwrap();
        assert_eq!(c.displaced_hash, Some(triangle_hash));
        // …and a chained remove reports the intermediate hash the
        // replace installed — each write names exactly what it
        // displaced, so hash-keyed cache eviction cannot skip a step.
        let c = store.remove(a.id()).unwrap();
        assert_eq!(c.displaced_hash, Some(content_hash_of(&chain(4))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_duplicating_another_live_entry_conflicts() {
        let dir = tmpdir("conflict");
        let store = writable_store(&dir, Repository::new());
        let a = store.insert(triangle(), "gen", "CQ Application").unwrap();
        let b = store.insert(chain(2), "gen", "CQ Application").unwrap();
        // Making b identical to a would break hash uniqueness: conflict.
        match store.replace(b.id(), triangle(), "gen", "CQ Application") {
            Err(StoreError::DuplicateContent { id }) => assert_eq!(id, a.id()),
            other => panic!("expected DuplicateContent, got {other:?}"),
        }
        // Replacing an entry with its own content is a legal rewrite.
        store
            .replace(a.id(), triangle(), "renamed", "CQ Application")
            .unwrap();
        assert_eq!(store.snapshot().get(a.id()).unwrap().collection, "renamed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_paging_merges_base_and_overlay() {
        let dir = tmpdir("paging");
        let mut base = Repository::new();
        for i in 0..4 {
            base.insert(chain(i + 1), "base", "CQ Application");
        }
        let store = writable_store(&dir, base);
        store.insert(chain(9), "fresh", "CQ Application").unwrap();
        store.remove(1).unwrap();
        store
            .replace(2, chain(7), "swapped", "CQ Application")
            .unwrap();
        let snap = store.snapshot();
        // Live ids: 0 (base), 2 (replaced), 3 (base), 4 (inserted).
        assert_eq!(
            snap.metas().map(|m| m.id).collect::<Vec<_>>(),
            vec![0, 2, 3, 4]
        );
        // Keyset paging over a snapshot is a walk of `metas()`.
        let after = |a: usize| snap.metas().map(|m| m.id).filter(move |&id| id > a);
        assert_eq!(after(0).take(2).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(after(3).collect::<Vec<_>>(), vec![4]);
        // Filters see overlay metadata (the replaced collection), and
        // the page hydrates through `try_get`.
        let filter = Filter::new().collection("swapped");
        let swapped: Vec<usize> = snap
            .metas()
            .filter(|m| filter.matches_meta(m))
            .map(|m| m.id)
            .collect();
        assert_eq!(swapped, vec![2]);
        assert_eq!(snap.try_get(2).unwrap().unwrap().collection, "swapped");
        // Stats aggregate the merged view.
        assert_eq!(crate::aggregate_stats(&snap).entries, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL append failure flips the store degraded (writes refused,
    /// reads still served) and the supervisor recovers it by rebuilding
    /// the log from `pending`. Needs `hyperbench-fault/failpoints`;
    /// no-op otherwise.
    #[test]
    fn wal_failure_degrades_and_supervisor_recovers() {
        if !hyperbench_fault::ENABLED {
            return;
        }
        let dir = tmpdir("degraded");
        let store = writable_store(&dir, Repository::new());
        let a = store.insert(triangle(), "gen", "CQ Application").unwrap();
        hyperbench_fault::configure("wal.fsync", "return(disk gone)").unwrap();
        let err = store
            .insert(chain(2), "gen", "CQ Application")
            .expect_err("append must fail");
        assert!(matches!(err, StoreError::Degraded(_)), "{err}");
        assert!(store.degraded().is_some());
        // Reads keep serving the last committed snapshot; further
        // writes are refused without touching the WAL.
        assert_eq!(store.snapshot().len(), 1);
        assert!(store.snapshot().contains(a.id()));
        let err = store
            .insert(chain(3), "gen", "CQ Application")
            .expect_err("degraded store refuses writes");
        assert!(matches!(err, StoreError::Degraded(_)), "{err}");
        // Heal the fault; the supervisor clears the flag within its
        // 200ms poll interval and writes flow again.
        hyperbench_fault::remove("wal.fsync");
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while store.degraded().is_some() && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(store.degraded().is_none(), "supervisor never recovered");
        let b = store.insert(chain(2), "gen", "CQ Application").unwrap();
        assert!(b.created());
        assert_eq!(store.snapshot().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
