//! Crash-recovery guarantees, attacked from two directions:
//!
//! 1. **Property**: any byte-truncation of a WAL — or of an
//!    analysis-cache spill segment, which shares its frame scanner —
//!    recovers to a consistent prefix of the committed records — never
//!    a partial record, never a reordering, and the cut is reported as
//!    a torn tail unless it falls exactly on a frame boundary. Damage
//!    *before* intact frames must instead fail loudly as corruption.
//! 2. **Between the two files of a checkpoint**: the folded pack is
//!    renamed into place but the process dies before the WAL is
//!    trimmed. Reopening replays the whole log over a pack that already
//!    absorbed it and lands on exactly the pre-crash state.
//! 3. **Live socket**: a writable pack-backed server is `kill -9`ed
//!    mid-write-stream; on restart every acknowledged write survives
//!    (verified by content hash via idempotent re-`POST`), unacked
//!    writes leave no duplicates, and the replayed state lands in the
//!    pack's own pages via checkpoint-on-open.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hyperbench_api::{Client, WriteRequest};
use hyperbench_core::format::parse_hg;
use hyperbench_integration_tests::fixture::{doc, tmpdir};
use hyperbench_repo::store::pack::content_hash_of;
use hyperbench_repo::store::spill::{self, SpillRecord};
use hyperbench_repo::store::wal::{self, WalEntry, WalRecord};
use hyperbench_repo::store::StoreError;
use hyperbench_repo::{analyze_instance, AnalysisConfig, Repository};
use proptest::prelude::*;

fn entry(id: u64, i: usize) -> WalEntry {
    WalEntry {
        id,
        name: String::new(),
        collection: "uploads".to_string(),
        class: "Uploaded".to_string(),
        hg_text: doc(i),
        analysis: None,
    }
}

/// A representative log: inserts, a replace, a remove, more inserts.
fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Insert {
            seq: 1,
            entry: entry(0, 0),
        },
        WalRecord::Insert {
            seq: 2,
            entry: entry(1, 1),
        },
        WalRecord::Replace {
            seq: 3,
            entry: entry(0, 2),
        },
        WalRecord::Insert {
            seq: 4,
            entry: entry(2, 3),
        },
        WalRecord::Remove { seq: 5, id: 1 },
        WalRecord::Insert {
            seq: 6,
            entry: entry(3, 4),
        },
    ]
}

fn sample_bytes() -> (Vec<u8>, Vec<usize>) {
    concat_frames(sample_records().iter().map(wal::encode))
}

/// A spill segment of three results with different payload sizes.
fn sample_spill_records() -> Vec<SpillRecord> {
    (0..3)
        .map(|i| {
            let text = doc(i);
            let mut record =
                analyze_instance(&parse_hg(&text).unwrap(), &AnalysisConfig::default());
            record.hw_steps.clear(); // per-k timings are not persisted
            SpillRecord {
                hash: 0x9e37_79b9 * (i as u64 + 1),
                keyed: format!("hd:{i}\n{text}"),
                method: "hd".to_string(),
                hg_text: text,
                record,
                witness_json: (i % 2 == 0).then(|| format!(r#"{{"width":{i}}}"#)),
                fractional_width: None,
            }
        })
        .collect()
}

/// A file image of the given frames, plus every frame boundary in it.
fn concat_frames(frames: impl Iterator<Item = Vec<u8>>) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for frame in frames {
        bytes.extend_from_slice(&frame);
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// `wal::scan` and `spill::scan`: the intact records of a file image
/// plus whatever stopped the scan.
type Scan<T> = fn(&[u8]) -> (Vec<T>, Option<StoreError>);

/// What a scan of `image[..cut]` must answer: exactly the records whose
/// frames fit before the cut, in order, and a torn tail (per `is_torn`)
/// whenever the cut falls inside a frame.
fn check_cut<T: PartialEq + std::fmt::Debug>(
    (image, boundaries): &(Vec<u8>, Vec<usize>),
    full: &[T],
    cut: usize,
    scan: Scan<T>,
    is_torn: fn(&StoreError) -> bool,
) -> proptest::TestCaseResult {
    let cut = cut.min(image.len());
    let (records, err) = scan(&image[..cut]);
    let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
    prop_assert_eq!(records.len(), expect, "longest whole-frame prefix");
    prop_assert_eq!(&records[..], &full[..expect], "prefix is unaltered");
    if boundaries.contains(&cut) {
        prop_assert!(err.is_none(), "clean cut at a frame boundary: {err:?}");
    } else {
        prop_assert!(
            err.as_ref().is_some_and(is_torn),
            "mid-frame cut must be a torn tail, got {err:?}"
        );
    }
    Ok(())
}

// Cutting either log anywhere yields exactly the records whose frames
// fit before the cut, in order — and flags the torn tail whenever the
// cut falls inside a frame.
proptest! {
    #[test]
    fn any_truncation_recovers_a_consistent_prefix(cut in 0usize..=1024) {
        check_cut(&sample_bytes(), &sample_records(), cut, wal::scan, |e| {
            matches!(e, StoreError::WalTornTail { .. })
        })?;
        let spilled = sample_spill_records();
        check_cut(
            &concat_frames(spilled.iter().map(SpillRecord::encode)),
            &spilled,
            cut,
            spill::scan,
            |e| matches!(e, StoreError::SpillTornTail { .. }),
        )?;
    }
}

#[test]
fn damage_before_intact_frames_is_corruption_not_a_torn_tail() {
    let (mut bytes, boundaries) = sample_bytes();
    // Flip a payload byte inside the first frame; frames behind it are
    // intact, so this must not be silently dropped as a tail.
    let mid_first = boundaries[1] / 2;
    bytes[mid_first] ^= 0xff;
    let (records, err) = wal::scan(&bytes);
    assert!(
        records.is_empty(),
        "nothing before the damage is trustworthy"
    );
    assert!(
        matches!(err, Some(StoreError::Corrupt(_))),
        "expected Corrupt, got {err:?}"
    );
}

#[test]
fn truncated_wal_file_reopens_with_the_committed_prefix() {
    let dir = tmpdir("truncate-reopen");
    let (bytes, boundaries) = sample_bytes();
    // Cut inside the final frame: records 1..=5 survive, the torn
    // insert of id 3 vanishes.
    let cut = boundaries[5] + (boundaries[6] - boundaries[5]) / 2;
    let wal_path = dir.join("repo.wal");
    std::fs::write(&wal_path, &bytes[..cut]).unwrap();
    let recovery = wal::recover(&wal_path).unwrap();
    assert_eq!(recovery.records.len(), 5);
    assert_eq!(recovery.torn_tail, Some(boundaries[5] as u64));

    let store = hyperbench_repo::store::mvcc::MvccStore::open(
        Repository::new(),
        hyperbench_repo::store::mvcc::MvccOptions::new(wal_path, None),
    )
    .unwrap();
    let snap = store.snapshot();
    // Replay applied insert 0,1 / replace 0 / insert 2 / remove 1.
    assert_eq!(snap.len(), 2);
    assert!(snap.contains(0) && snap.contains(2));
    assert!(!snap.contains(1), "removed by the surviving remove record");
    assert!(!snap.contains(3), "torn insert must not resurface");
    assert_eq!(
        snap.content_hash(0),
        Some(content_hash_of(&parse_hg(&doc(2)).unwrap())),
        "entry 0 carries the replacement content"
    );
}

/// What a generation holds, for comparing two of them.
fn fingerprint(
    snap: &hyperbench_repo::store::mvcc::Snapshot,
) -> Vec<(usize, Option<u64>, String, String)> {
    snap.metas()
        .map(|m| {
            let text = hyperbench_core::format::to_hg(&snap.get(m.id).unwrap().hypergraph);
            (
                m.id,
                snap.content_hash(m.id),
                m.collection.to_string(),
                text,
            )
        })
        .collect()
}

#[test]
fn crash_after_the_pack_rename_before_the_wal_trim_reopens_to_the_same_state() {
    use hyperbench_repo::store::mvcc::{Inserted, MvccOptions, MvccStore};
    let dir = tmpdir("rename-no-trim");
    let (pack, wal_path) = (dir.join("repo.pack"), dir.join("repo.wal"));
    let hg = |i: usize| parse_hg(&doc(i)).unwrap();
    let mut base = Repository::new();
    for i in 0..5 {
        base.insert(hg(i), "base", "CQ Application");
    }
    hyperbench_repo::store::pack::write_pack(&base, &pack).unwrap();
    let open = |checkpoint_on_open: bool| {
        let opts = MvccOptions {
            checkpoint_on_open,
            ..MvccOptions::new(wal_path.clone(), Some(pack.clone()))
        };
        MvccStore::open(Repository::open_pack(&pack).unwrap(), opts).unwrap()
    };

    // Carried rows (0, 4), a replace (1), a tombstone over a base row
    // (2), replace-then-delete (3), an insert that stays (6) and one
    // deleted again (5: a tombstone for an id the folded pack never had).
    let store = open(true);
    let five = store.insert(hg(10), "uploads", "Uploaded").unwrap().id();
    store.replace(1, hg(11), "swapped", "Uploaded").unwrap();
    store.remove(2).unwrap();
    let six = store.insert(hg(12), "uploads", "Uploaded").unwrap().id();
    store.remove(five).unwrap();
    store.replace(3, hg(13), "swapped", "Uploaded").unwrap();
    store.remove(3).unwrap();
    let before = fingerprint(&store.snapshot());
    assert_eq!(
        before.iter().map(|f| f.0).collect::<Vec<_>>(),
        vec![0, 1, 4, six]
    );
    let untrimmed = std::fs::read(&wal_path).unwrap();
    assert!(store.checkpoint_now().unwrap());
    drop(store);
    // The crash: the rename is durable, the trim never happened.
    std::fs::write(&wal_path, &untrimmed).unwrap();

    let store = open(false);
    assert_eq!(fingerprint(&store.snapshot()), before);
    // The idempotent-create index and the id high-water mark came back
    // too: a known document keeps its id, a new one gets a fresh id.
    assert_eq!(
        store.insert(hg(12), "uploads", "Uploaded").unwrap(),
        Inserted::Existing { id: six }
    );
    assert!(store.insert(hg(10), "uploads", "Uploaded").unwrap().id() > six);
    drop(store);

    // Checkpoint-on-open folds the replayed log into the pack again.
    std::fs::write(&wal_path, &untrimmed).unwrap();
    let store = open(true);
    assert_eq!(fingerprint(&store.snapshot()), before);
    assert!(wal::read_all(&wal_path).unwrap().is_empty());
    drop(store);
    let packed = Repository::open_pack(&pack).unwrap();
    assert_eq!(
        packed.metas().map(|m| m.id).collect::<Vec<_>>(),
        before.iter().map(|f| f.0).collect::<Vec<_>>()
    );
}

/// Spawns the writable pack server over `dir` and parses its bound
/// address off stdout.
fn spawn_server(dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_write_server"))
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn write_server");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("addr line");
    let addr = line
        .strip_prefix("ADDR ")
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or_else(|| panic!("bad address line {line:?}"));
    (child, addr)
}

#[test]
fn kill_nine_mid_write_loses_no_committed_instance() {
    let dir = tmpdir("kill9");
    let pack = dir.join("repo.pack");
    hyperbench_repo::store::pack::write_pack(&Repository::new(), &pack).expect("seed empty pack");

    // --- first life: commit a few writes, then die mid-stream ---
    let (mut child, addr) = spawn_server(&dir);
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
    let mut acked = Vec::new();
    for i in 0..6 {
        let r = client.put_new(&WriteRequest::new(doc(i))).unwrap();
        assert_eq!(r.outcome.as_str(), "created");
        acked.push((i, r.id, r.content_hash.unwrap()));
    }
    // Background writer keeps the WAL hot so SIGKILL lands mid-write;
    // its acks (arriving before the kill) count as committed too.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = Client::new(addr).with_timeout(Duration::from_secs(5));
            let mut extra = Vec::new();
            for i in 100.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match client.put_new(&WriteRequest::new(doc(i))) {
                    Ok(r) => extra.push((i, r.id, r.content_hash.unwrap())),
                    Err(_) => break, // the kill landed mid-request
                }
            }
            extra
        })
    };
    std::thread::sleep(Duration::from_millis(60));
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");
    stop.store(true, Ordering::Relaxed);
    acked.extend(writer.join().expect("writer thread"));

    // --- second life: recovery replays the WAL before serving ---
    let (mut child, addr) = spawn_server(&dir);
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
    let total = client.healthz().unwrap();
    assert!(
        total >= acked.len(),
        "{} acked writes but only {total} entries after restart",
        acked.len()
    );
    for (i, id, hash) in &acked {
        // Idempotent create answers `exists` at the original id iff the
        // committed content survived, hash included.
        let r = client.put_new(&WriteRequest::new(doc(*i))).unwrap();
        assert_eq!(r.outcome.as_str(), "exists", "doc {i} vanished");
        assert_eq!(r.id, *id, "doc {i} moved ids");
        assert_eq!(r.content_hash, Some(*hash), "doc {i} content changed");
    }

    // No duplicates: every live entry is one of our docs, each at most
    // once (content hashes stay unique among live entries).
    let mut hashes = Vec::new();
    for item in client
        .list_all(&hyperbench_api::ListQuery::new().limit(64))
        .unwrap()
        .items
    {
        let h = content_hash_of(&parse_hg(&client.raw_hg(item.id).unwrap()).unwrap());
        assert!(!hashes.contains(&h), "duplicate content after recovery");
        hashes.push(h);
    }
    child.kill().expect("stop second server");
    child.wait().expect("reap");

    // --- the pack itself holds the recovered state ---
    // Checkpoint-on-open folded the WAL into pack pages before the
    // second server answered a single request, so the pack alone —
    // no WAL replay — must now contain every acknowledged write.
    let repo = Repository::open_pack(&pack).expect("open checkpointed pack");
    for (i, id, hash) in &acked {
        assert_eq!(
            repo.content_hash(*id),
            Some(*hash),
            "doc {i} missing from checkpointed pack pages"
        );
    }
}
