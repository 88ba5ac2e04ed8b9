//! Hostile tree bytes. Every truncation point and every single-byte
//! flip of an exported tree's `index.tsv`, and of one of its `.hg`
//! files, ends one of two ways: `import` returns an `Err`, or the
//! entries read back equal the original ones except the one the damage
//! hit. None may panic.
//!
//! A tree carries no checksum, so a flip inside a vertex or collection
//! name reads back as a different, well-formed entry: that is damage
//! the format cannot see. What it must never do is let the damage
//! spread to another entry, or out of the tree (`file` columns are
//! checked to be plain file names).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hyperbench_core::format::{parse_hg_named, to_hg_unnamed};
use hyperbench_repo::store::tree::{export, import};
use hyperbench_repo::{Entry, Repository};
use proptest::prelude::*;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hyperbench-hostile-tree-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `entries` chains with sparse ids, some named.
fn corpus(entries: usize, seed: u64) -> Repository {
    let mut repo = Repository::new();
    for i in 0..entries {
        let edges = 2 + (seed as usize + i) % 3;
        let atoms: Vec<String> = (0..edges)
            .map(|e| format!("s{seed}i{i}e{e}(v{e},v{})", e + 1))
            .collect();
        let name = if i % 3 == 0 {
            format!("hostile/{i}")
        } else {
            String::new()
        };
        repo.insert_entry(Entry {
            id: 2 * i + 1,
            collection: ["SPARQL", "TPC-H"][i % 2].to_string(),
            class: "CQ Application".to_string(),
            hypergraph: parse_hg_named(&format!("{}.", atoms.join(",")), &name).unwrap(),
            analysis: None,
        })
        .unwrap();
    }
    repo
}

/// What an import must read back per entry: id, name, collection,
/// class and the canonical payload.
type View = (usize, String, String, String, String);

fn view(repo: &Repository) -> Vec<View> {
    repo.entries()
        .map(|e| {
            (
                e.id,
                e.hypergraph.name().to_string(),
                e.collection.clone(),
                e.class.clone(),
                to_hg_unnamed(&e.hypergraph),
            )
        })
        .collect()
}

/// Imports `dir`: `Ok(None)` on an error, `Ok(Some(rows))` on success,
/// `Err` on a panic.
fn read_back(dir: &Path) -> Result<Option<Vec<View>>, String> {
    catch_unwind(AssertUnwindSafe(|| import(dir).ok().map(|r| view(&r))))
        .map_err(|_| "panicked".to_string())
}

/// `rows` equals `expected` at every position but `hit`.
fn only_hit_differs(rows: &[View], expected: &[View], hit: usize) -> bool {
    rows.len() == expected.len()
        && rows
            .iter()
            .zip(expected)
            .enumerate()
            .all(|(at, (a, b))| at == hit || a == b)
}

/// Writes each damaged version of `file` (every cut, every flip by
/// `mask`) and checks a successful import with `judge(at, cut, rows)`:
/// `at` is the cut point or the flipped byte.
fn every_cut_and_flip(
    dir: &Path,
    file: &str,
    mask: u8,
    judge: impl Fn(usize, bool, &[View]) -> bool,
) -> Result<(), String> {
    let path = dir.join(file);
    let bytes = std::fs::read(&path).unwrap();
    let check = |damaged: &[u8], at: usize, cut: bool, what: String| {
        std::fs::write(&path, damaged).unwrap();
        match read_back(dir).map_err(|e| format!("{what}: {e}"))? {
            Some(rows) if !judge(at, cut, &rows) => {
                Err(format!("{what}: the damage reached another entry"))
            }
            _ => Ok(()),
        }
    };
    for cut in 0..bytes.len() {
        check(&bytes[..cut], cut, true, format!("{file} cut at {cut}"))?;
    }
    let mut flipped = bytes.clone();
    for at in 0..bytes.len() {
        flipped[at] ^= mask;
        check(
            &flipped,
            at,
            false,
            format!("{file} byte {at} ^ {mask:#04x}"),
        )?;
        flipped[at] = bytes[at];
    }
    std::fs::write(&path, &bytes).unwrap();
    Ok(())
}

fn hostile(repo: &Repository, dir: &Path, mask: u8) -> Result<(), String> {
    let expected = view(repo);
    export(repo, dir).unwrap();
    assert_eq!(read_back(dir).unwrap().as_deref(), Some(&expected[..]));

    // The manifest: a byte of line `l` belongs to entry `l - 1`; the
    // header belongs to none, so damage there must be an error. A cut
    // keeps the rows before the cut line intact.
    let index = std::fs::read(dir.join("index.tsv")).unwrap();
    let line_of = |at: usize| index[..at].iter().filter(|&&b| b == b'\n').count();
    every_cut_and_flip(dir, "index.tsv", mask, |at, cut, rows| {
        if cut {
            let kept = rows.len().saturating_sub(1);
            rows.len() <= expected.len() && rows[..kept] == expected[..kept]
        } else {
            line_of(at) > 0 && only_hit_differs(rows, &expected, line_of(at) - 1)
        }
    })?;

    // One payload: only its own entry may change, and not its id,
    // name, collection or class.
    let hit = expected.len() / 2;
    let file = format!("{:05}.hg", expected[hit].0);
    every_cut_and_flip(dir, &file, mask, |_, _, rows| {
        let (id, name, collection, class, _) = &expected[hit];
        only_hit_differs(rows, &expected, hit)
            && (&rows[hit].0, &rows[hit].1, &rows[hit].2, &rows[hit].3)
                == (id, name, collection, class)
    })
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_cut_and_flip_errs_or_stays_in_the_entry_it_hits(
        entries in 3usize..7,
        seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let dir = tmpdir(&format!("case-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let result = hostile(&corpus(entries, seed % 1_000), &dir, mask);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
