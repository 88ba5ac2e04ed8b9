//! Hostile pack bytes. Every truncation point and every single-byte
//! flip of a small multi-page pack ends one of three ways: `open_pack`
//! returns an `Err`, `try_get` returns an `Err`, or the entries read
//! back equal the original ones. None may panic, and none may read back
//! different entries without saying so.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hyperbench_core::format::{parse_hg_named, to_hg_unnamed};
use hyperbench_repo::store::pack::write_pack_with;
use hyperbench_repo::{analyze_instance, AnalysisConfig, AnalysisRecord, Entry, Repository};
use proptest::prelude::*;

/// Small enough that every record spans pages.
const PAGE_SIZE: u32 = 64;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hyperbench-hostile-pack-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `entries` chains, every other one analysed, some named.
fn corpus(entries: usize, seed: u64) -> Repository {
    let mut repo = Repository::new();
    for i in 0..entries {
        let edges = 3 + (seed as usize + i) % 4;
        let atoms: Vec<String> = (0..edges)
            .map(|e| format!("s{seed}i{i}e{e}(v{e},v{})", e + 1))
            .collect();
        let name = if i % 3 == 0 {
            format!("hostile/{i}")
        } else {
            String::new()
        };
        let hypergraph = parse_hg_named(&format!("{}.", atoms.join(",")), &name).unwrap();
        let analysis =
            (i % 2 == 0).then(|| analyze_instance(&hypergraph, &AnalysisConfig::default()));
        repo.insert_entry(Entry {
            id: 2 * i + 1,
            collection: ["SPARQL", "TPC-H"][i % 2].to_string(),
            class: "CQ Application".to_string(),
            hypergraph,
            analysis,
        })
        .unwrap();
    }
    repo
}

/// What a reader must get back: every meta field, the payload and its
/// name, and the analysis less its step timings (packs do not store
/// them).
type View = (
    usize,
    String,
    String,
    [usize; 3],
    String,
    String,
    Option<AnalysisRecord>,
);

fn view(repo: &Repository) -> Result<Vec<View>, String> {
    let mut rows = Vec::new();
    for m in repo.metas() {
        let e = match repo.try_get(m.id) {
            Err(_) => return Err("try_get failed".to_string()),
            Ok(None) => panic!("id {} listed by the scan but absent", m.id),
            Ok(Some(e)) => e,
        };
        rows.push((
            m.id,
            m.collection.to_string(),
            m.class.to_string(),
            [m.vertices, m.edges, m.arity],
            e.hypergraph.name().to_string(),
            to_hg_unnamed(&e.hypergraph),
            e.analysis.as_ref().map(|r| AnalysisRecord {
                hw_steps: Vec::new(),
                ..r.clone()
            }),
        ));
    }
    Ok(rows)
}

/// Writes `bytes` as a pack and reads all of it back: `Ok` when every
/// read either failed with an error or matched `expected`.
fn read_back(path: &Path, bytes: &[u8], expected: &[View]) -> Result<(), String> {
    std::fs::write(path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| match Repository::open_pack(path) {
        Err(_) => Ok(()),
        Ok(repo) => match view(&repo) {
            Err(_) => Ok(()),
            Ok(rows) if rows == expected => Ok(()),
            Ok(_) => Err("the damage went unnoticed: entries differ".to_string()),
        },
    }));
    outcome.unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Every truncation and every flip (by `mask`) of `repo`'s pack.
fn every_cut_and_flip(repo: &Repository, dir: &Path, mask: u8) -> Result<(), String> {
    let expected = view(repo).unwrap();
    let pack = dir.join("repo.pack");
    write_pack_with(repo, &pack, PAGE_SIZE).unwrap();
    let bytes = std::fs::read(&pack).unwrap();
    let damaged = dir.join("damaged.pack");
    read_back(&damaged, &bytes, &expected).map_err(|e| format!("intact pack: {e}"))?;
    for cut in 0..bytes.len() {
        read_back(&damaged, &bytes[..cut], &expected)
            .map_err(|e| format!("cut at {cut} of {}: {e}", bytes.len()))?;
    }
    let mut flipped = bytes.clone();
    for at in 0..bytes.len() {
        flipped[at] ^= mask;
        read_back(&damaged, &flipped, &expected)
            .map_err(|e| format!("byte {at} of {} ^ {mask:#04x}: {e}", bytes.len()))?;
        flipped[at] = bytes[at];
    }
    Ok(())
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_cut_and_flip_errs_or_reads_back_the_original(
        entries in 4usize..7,
        seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let dir = tmpdir(&format!("case-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let repo = corpus(entries, seed % 1_000);
        let pages = repo.entries().map(|e| to_hg_unnamed(&e.hypergraph).len()).sum::<usize>()
            / PAGE_SIZE as usize;
        prop_assert!(pages >= 2, "the pack must span pages");
        let result = every_cut_and_flip(&repo, &dir, mask);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn the_empty_repository_survives_every_cut_and_flip() {
    let dir = tmpdir("empty");
    let empty = Repository::new();
    for mask in [0x01, 0x80, 0xff] {
        every_cut_and_flip(&empty, &dir, mask).unwrap();
    }
    assert!(Repository::open_pack(&dir.join("repo.pack"))
        .unwrap()
        .is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
