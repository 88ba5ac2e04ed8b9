//! Checkpoints that copy instead of re-parse.
//!
//! * **Byte identity** (property): folding a random overlay into a
//!   random base — cold pack, warm pack or memory — writes exactly the
//!   file `write_pack_entries` writes over the fully hydrated merged
//!   view.
//! * **Nothing laundered**: a rotten source page fails the checkpoint
//!   and leaves the served pack, the WAL and the overlay as they were.
//! * **Generations**: a snapshot pinned before a checkpoint keeps
//!   reading exactly its generation after it.
//! * **Nothing parsed**: `hyperbench_pack_entries_parsed_total` moves
//!   with ids first touched, never with checkpoints.
//! * **One fsync per append**: `hyperbench_wal_fsyncs_total`, counted
//!   where `sync_data` returns, moves exactly with the writes acked.
//! * **Failpoints** (`--features hyperbench-fault/failpoints`; no-ops
//!   otherwise): injected fold failures, and commits landing during a
//!   slow checkpoint do not trigger a second one.
//!
//! Counters and failpoints are process-global, so every test here holds
//! [`serial`].

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hyperbench_core::format::{parse_hg, parse_hg_named};
use hyperbench_repo::metrics::metrics;
use hyperbench_repo::store::mvcc::{MvccOptions, MvccStore, Snapshot};
use hyperbench_repo::store::pack::{
    write_pack, write_pack_entries, write_pack_with, DEFAULT_PAGE_SIZE,
};
use hyperbench_repo::{analyze_instance, AnalysisConfig, Entry, Repository, StoreError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Where a pack's data region starts (its fixed header length).
const DATA_OFF: usize = 88;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hyperbench-checkpoint-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A chain of `edges` edges, unique by `serial`.
fn doc(serial: u64, edges: u64) -> String {
    let atoms: Vec<String> = (0..edges.max(1))
        .map(|e| format!("d{serial}e{e}(d{serial}v{e},d{serial}v{})", e + 1))
        .collect();
    format!("{}.", atoms.join(","))
}

/// The property derives a whole case from one seed, so each base
/// flavour sees the same base and the same writes.
struct Rng(StdRng);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }
}

/// A memory repository of up to 12 entries: sparse ids, records of
/// varied length, some named, some analyzed.
fn random_base(rng: &mut Rng) -> Repository {
    let mut repo = Repository::new();
    let mut id = 0usize;
    for i in 0..rng.below(13) {
        id += 1 + rng.below(3) as usize;
        let name = if rng.below(2) == 0 {
            String::new()
        } else {
            format!("base/instance-{i}")
        };
        let hypergraph = parse_hg_named(&doc(1_000 + i, 1 + rng.below(6)), &name).unwrap();
        let analysis =
            (rng.below(3) == 0).then(|| analyze_instance(&hypergraph, &AnalysisConfig::default()));
        repo.insert_entry(Entry {
            id,
            collection: ["SPARQL", "TPC-H", "xcsp"][rng.below(3) as usize].to_string(),
            class: "CQ Application".to_string(),
            hypergraph,
            analysis,
        })
        .unwrap();
    }
    repo
}

/// 1–10 writes: inserts, replaces and removes of whatever is live, so
/// replace-then-delete and insert-then-delete sequences occur.
fn random_writes(rng: &mut Rng, store: &MvccStore) {
    for step in 0..1 + rng.below(10) {
        let live: Vec<usize> = store.snapshot().metas().map(|m| m.id).collect();
        let fresh = parse_hg(&doc(2_000 + step, 1 + rng.below(6))).unwrap();
        let roll = if live.is_empty() { 0 } else { rng.below(10) };
        let pick = |rng: &mut Rng| live[rng.below(live.len() as u64) as usize];
        match roll {
            0..=3 => drop(store.insert(fresh, "uploads", "Uploaded").unwrap()),
            4..=6 => drop(
                store
                    .replace(pick(rng), fresh, "swapped", "Uploaded")
                    .unwrap(),
            ),
            _ => drop(store.remove(pick(rng)).unwrap()),
        }
    }
}

fn hydrated(snapshot: &Snapshot) -> Vec<&Entry> {
    snapshot
        .metas()
        .map(|m| snapshot.get(m.id).expect("listed by the metadata scan"))
        .collect()
}

fn options(dir: &Path) -> MvccOptions {
    MvccOptions::new(dir.join("repo.wal"), Some(dir.join("repo.pack")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folded_pack_is_byte_identical_to_a_full_rewrite(seed in any::<u64>()) {
        let _serial = serial();
        let dir = tmpdir("identity");
        let pack = dir.join("repo.pack");
        // Cold pack, warm pack, memory base: the same base and the same
        // writes (the generator is re-seeded) through each.
        for mode in ["cold", "warm", "memory"] {
            let mut rng = Rng(StdRng::seed_from_u64(seed));
            let base = random_base(&mut rng);
            let base = if mode == "memory" {
                base
            } else {
                // Tiny pages make source records straddle them.
                let page_size = [64, 80, 128, DEFAULT_PAGE_SIZE][rng.below(4) as usize];
                write_pack_with(&base, &pack, page_size).unwrap();
                Repository::open_pack(&pack).unwrap()
            };
            let _ = std::fs::remove_file(dir.join("repo.wal"));
            let store = MvccStore::open(base, options(&dir)).unwrap();
            if mode == "warm" {
                hydrated(&store.snapshot());
            }
            random_writes(&mut rng, &store);
            let pinned = store.snapshot();
            let parsed = metrics().pack_entries_parsed.get();
            prop_assert!(store.checkpoint_now().unwrap(), "{mode}: nothing folded");
            prop_assert_eq!(metrics().pack_entries_parsed.get(), parsed, "{} fold parsed", mode);
            let folded = std::fs::read(&pack).unwrap();
            // The reference hydrates the pinned generation only now, so
            // the cold fold really ran over a cold base.
            let reference = dir.join("reference.pack");
            write_pack_entries(hydrated(&pinned).into_iter(), &reference, DEFAULT_PAGE_SIZE)
                .unwrap();
            prop_assert!(
                folded == std::fs::read(&reference).unwrap(),
                "{mode}: folded pack differs from the full rewrite"
            );
            let now = store.snapshot();
            prop_assert_eq!(now.len(), pinned.len());
            for (a, b) in now.metas().zip(pinned.metas()) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(now.content_hash(a.id), pinned.content_hash(a.id));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A base pack of `n` entries (dense ids from 0) at the default page
/// size, opened cold.
fn base_pack(pack: &Path, n: u64) -> Repository {
    let mut repo = Repository::new();
    for i in 0..n {
        repo.insert(
            parse_hg(&doc(i, 1 + i % 5)).unwrap(),
            "base",
            "CQ Application",
        );
    }
    write_pack(&repo, pack).unwrap();
    Repository::open_pack(pack).unwrap()
}

fn fresh(serial: u64) -> hyperbench_core::Hypergraph {
    parse_hg(&doc(5_000 + serial, 3)).unwrap()
}

#[test]
fn a_rotten_base_page_fails_the_checkpoint_and_changes_nothing() {
    let _serial = serial();
    let dir = tmpdir("rotten");
    let pack = dir.join("repo.pack");
    drop(base_pack(&pack, 10));
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[DATA_OFF + 10] ^= 0xff; // inside entry 0's record
    std::fs::write(&pack, &bytes).unwrap();

    let store = MvccStore::open(Repository::open_pack(&pack).unwrap(), options(&dir)).unwrap();
    let a = store.insert(fresh(1), "uploads", "Uploaded").unwrap();
    let wal = std::fs::read(dir.join("repo.wal")).unwrap();
    match store.checkpoint_now() {
        Err(StoreError::BadPageChecksum { page: 0 }) => {}
        other => panic!("expected BadPageChecksum for page 0, got {other:?}"),
    }
    assert!(
        std::fs::read(&pack).unwrap() == bytes,
        "served pack touched"
    );
    assert_eq!(
        std::fs::read(dir.join("repo.wal")).unwrap(),
        wal,
        "WAL touched"
    );
    assert!(
        !dir.join("repo.pack.tmp").exists(),
        "half-written pack left"
    );
    // The overlay still answers and writes still commit.
    let snap = store.snapshot();
    assert_eq!(snap.len(), 11);
    assert_eq!(snap.get(a.id()).unwrap().collection, "uploads");
    assert!(store
        .insert(fresh(2), "uploads", "Uploaded")
        .unwrap()
        .created());
    assert_eq!(store.snapshot().len(), 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_pinned_snapshot_and_cursor_outlive_the_checkpoint_and_the_old_base() {
    let _serial = serial();
    let dir = tmpdir("pinned");
    let pack = dir.join("repo.pack");
    let mut opts = options(&dir);
    opts.retained_snapshots = 4;
    let store = MvccStore::open(base_pack(&pack, 8), opts).unwrap();
    let a = store.insert(fresh(1), "uploads", "Uploaded").unwrap();
    store.remove(2).unwrap();
    let pinned = store.snapshot();
    let cursor = pinned.seq();
    let ids = |s: &Snapshot| s.metas().map(|m| m.id).collect::<Vec<_>>();
    let generation = vec![0, 1, 3, 4, 5, 6, 7, a.id()];
    assert_eq!(ids(&pinned), generation);

    // Later commits, then a checkpoint that folds all of it.
    store.remove(5).unwrap();
    store.replace(6, fresh(2), "swapped", "Uploaded").unwrap();
    assert!(store.checkpoint_now().unwrap());
    let resumed = store
        .snapshot_at(cursor)
        .expect("cursor generation retained");
    assert_eq!(ids(&resumed), generation);
    drop(resumed);

    // Push every old-base generation out of the retained window: the
    // pinned snapshot is now the old base's last holder besides the
    // store's own parking slot.
    for i in 0..6 {
        store.insert(fresh(10 + i), "uploads", "Uploaded").unwrap();
    }
    assert!(
        store.snapshot_at(cursor).is_none(),
        "cursor generation evicted"
    );
    assert_eq!(ids(&pinned), generation);
    // Id 5 was never read before the checkpoint: it hydrates now, from
    // the replaced pack file the old base still holds open.
    assert_eq!(pinned.get(5).unwrap().hypergraph.num_edges(), 1);
    assert_eq!(pinned.get(6).unwrap().collection, "base");
    assert!(pinned.get(2).is_none());
    let now = store.snapshot();
    assert!(now.get(5).is_none());
    assert_eq!(now.get(6).unwrap().collection, "swapped");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_parses_nothing_and_keeps_what_was_parsed() {
    let _serial = serial();
    let dir = tmpdir("parsed");
    let pack = dir.join("repo.pack");
    let store = MvccStore::open(base_pack(&pack, 2_000), options(&dir)).unwrap();
    let parsed = || metrics().pack_entries_parsed.get();
    let pages = || metrics().pack_page_hydrations.get();

    // Touch 100 ids, then 50 overlay writes over a base otherwise cold.
    let start = parsed();
    let snap = store.snapshot();
    for id in 0..100 {
        snap.get(id).unwrap();
    }
    assert_eq!(parsed() - start, 100);
    drop(snap);
    for i in 0..50u64 {
        match i % 5 {
            0 => drop(store.remove(1_000 + i as usize).unwrap()),
            1 => drop(
                store
                    .replace(1_100 + i as usize, fresh(i), "swapped", "Uploaded")
                    .unwrap(),
            ),
            _ => drop(store.insert(fresh(i), "uploads", "Uploaded").unwrap()),
        }
    }
    let (before, pages_before) = (parsed(), pages());
    let source_pages = std::fs::metadata(&pack).unwrap().len().div_ceil(4096);
    assert!(store.checkpoint_now().unwrap());
    assert_eq!(parsed() - before, 0, "the checkpoint parsed entries");
    assert!(
        pages() - pages_before <= source_pages,
        "the fold read {} pages of a {source_pages}-page pack",
        pages() - pages_before
    );

    // Hydrated before the checkpoint: carried over. Folded from the
    // overlay: adopted. Never touched: parsed once, on first read.
    let snap = store.snapshot();
    assert!(snap.get(1_000).is_none());
    for id in 0..100 {
        snap.get(id).unwrap();
    }
    assert_eq!(snap.get(1_101).unwrap().collection, "swapped");
    assert_eq!(snap.get(2_000).unwrap().collection, "uploads");
    assert_eq!(parsed() - before, 0, "reads after the checkpoint re-parsed");
    snap.get(1_500).unwrap();
    assert_eq!(parsed() - before, 1);
    snap.get(1_500).unwrap();
    assert_eq!(parsed() - before, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_acked_write_is_one_append_and_one_fsync() {
    let _serial = serial();
    for checkpoint_midway in [false, true] {
        let dir = tmpdir("fsyncs");
        let store = MvccStore::open(base_pack(&dir.join("repo.pack"), 8), options(&dir)).unwrap();
        let counters = || (metrics().wal_appends.get(), metrics().wal_fsyncs.get());
        let (appends, fsyncs) = counters();
        for i in 0..10u64 {
            let id = store.insert(fresh(i), "uploads", "Uploaded").unwrap().id();
            store
                .replace(id, fresh(100 + i), "swapped", "Uploaded")
                .unwrap();
            store.remove(id).unwrap();
            if checkpoint_midway && i == 4 {
                assert!(store.checkpoint_now().unwrap());
            }
        }
        let (appended, fsynced) = counters();
        assert_eq!(appended - appends, 30, "one append per acked write");
        assert_eq!(fsynced - fsyncs, 30, "one fsync per append");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn injected_fold_failures_leave_the_store_serving() {
    if !hyperbench_fault::ENABLED {
        return;
    }
    let _serial = serial();
    let dir = tmpdir("faults");
    let pack = dir.join("repo.pack");
    let store = MvccStore::open(base_pack(&pack, 10), options(&dir)).unwrap();
    store.insert(fresh(1), "uploads", "Uploaded").unwrap();
    let served = std::fs::read(&pack).unwrap();

    hyperbench_fault::configure("pack.read_page", "1*return(rot)").unwrap();
    assert!(matches!(
        store.checkpoint_now(),
        Err(StoreError::BadPageChecksum { .. })
    ));
    hyperbench_fault::configure("checkpoint.run", "1*return(boom)").unwrap();
    assert!(matches!(store.checkpoint_now(), Err(StoreError::Io(_))));
    hyperbench_fault::clear();
    assert!(
        std::fs::read(&pack).unwrap() == served,
        "served pack touched"
    );
    assert_eq!(store.snapshot().len(), 11);
    store.insert(fresh(2), "uploads", "Uploaded").unwrap();

    // Healed: the same overlay folds.
    assert!(store.checkpoint_now().unwrap());
    assert_eq!(Repository::open_pack(&pack).unwrap().len(), 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn commits_during_a_checkpoint_do_not_trigger_a_second_one() {
    if !hyperbench_fault::ENABLED {
        return;
    }
    let _serial = serial();
    let dir = tmpdir("spurious");
    const LIMIT: u64 = 8;
    let mut opts = options(&dir);
    opts.overlay_limit = LIMIT as usize;
    let store = MvccStore::open(Repository::new(), opts).unwrap();
    let checkpoints = || metrics().wal_checkpoints.get();
    let fired = || {
        hyperbench_telemetry::global()
            .snapshot()
            .counter("hyperbench_fault_injected_total")
            .unwrap_or(0)
    };
    let commit = |range: std::ops::Range<u64>| {
        for i in range {
            store.insert(fresh(i), "uploads", "Uploaded").unwrap();
        }
    };
    let (start, fired_before) = (checkpoints(), fired());
    // The failpoint sits after the checkpoint pinned its snapshot: the
    // first pass folds exactly LIMIT commits, slowly.
    hyperbench_fault::configure("checkpoint.run", "1*sleep(400)").unwrap();
    commit(0..LIMIT);
    wait_until("the checkpoint to start", || fired() > fired_before);
    // Each of these sees the untrimmed overlay ≥ LIMIT and re-arms the
    // request — for an overlay the running checkpoint trims to LIMIT/2.
    commit(LIMIT..LIMIT + LIMIT / 2);
    wait_until("the first checkpoint", || checkpoints() == start + 1);
    std::thread::sleep(Duration::from_millis(500)); // two checkpointer ticks
    assert_eq!(
        checkpoints() - start,
        1,
        "a checkpoint ran for half a limit"
    );
    // The rest of the second limit's worth makes the second one due.
    commit(LIMIT + LIMIT / 2..2 * LIMIT);
    wait_until("the second checkpoint", || checkpoints() == start + 2);
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(checkpoints() - start, 2);
    hyperbench_fault::clear();
    assert_eq!(store.snapshot().len(), 2 * LIMIT as usize);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
