//! The `.hg` tree: the interchange format, as the real HyperBench
//! publishes it. One DetKDecomp-format `.hg` file per hypergraph plus an
//! `index.tsv` manifest naming, per entry, its id, its file, its name
//! and its provenance. A tree is imported into a pack and exported from
//! one; it is never served, and it carries no analysis (the pack does).

use std::fs;
use std::io::Write;
use std::path::{Component, Path};

use hyperbench_core::format::{parse_hg_named, to_hg_unnamed};

use crate::{Entry, Repository};

use super::StoreError;

/// The manifest's columns, in order; its first line is exactly these,
/// joined by tabs.
pub const MANIFEST_COLUMNS: [&str; 5] = ["id", "file", "name", "collection", "class"];

/// A field as a manifest row can hold it: tabs and line breaks become
/// spaces.
fn tsv_safe(field: &str) -> String {
    field.replace(['\t', '\n', '\r'], " ")
}

/// Writes every entry of `repo` into `dir` (created if missing): one
/// `{id:05}.hg` file each, without a name header, and the manifest.
pub fn export(repo: &Repository, dir: &Path) -> Result<(), StoreError> {
    fs::create_dir_all(dir)?;
    let mut index = std::io::BufWriter::new(fs::File::create(dir.join("index.tsv"))?);
    writeln!(index, "{}", MANIFEST_COLUMNS.join("\t"))?;
    for e in repo.entries() {
        let file = format!("{:05}.hg", e.id);
        fs::write(dir.join(&file), to_hg_unnamed(&e.hypergraph))?;
        writeln!(
            index,
            "{}\t{file}\t{}\t{}\t{}",
            e.id,
            tsv_safe(e.hypergraph.name()),
            tsv_safe(&e.collection),
            tsv_safe(&e.class),
        )?;
    }
    index.flush()?;
    Ok(())
}

/// A malformed-manifest error pointing at `index.tsv` line `lineno`
/// (1-based).
fn corrupt_row(lineno: usize, msg: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("index.tsv line {lineno}: {msg}"))
}

/// Whether `file` names a file directly inside the tree: one plain path
/// component, so no row can reach outside `dir`.
fn plain_file(file: &str) -> bool {
    let mut parts = Path::new(file).components();
    matches!(parts.next(), Some(Component::Normal(p)) if p == file) && parts.next().is_none()
}

/// Reads the tree in `dir` into a repository, ids as the manifest gives
/// them (strictly ascending, gaps allowed). A header other than
/// [`MANIFEST_COLUMNS`], a row of another width, an id out of order, a
/// `file` that is not a plain file name inside `dir`, and an unparsable
/// `.hg` file are each a [`StoreError::Corrupt`] naming the line.
pub fn import(dir: &Path) -> Result<Repository, StoreError> {
    let index = fs::read_to_string(dir.join("index.tsv"))?;
    let mut lines = index.lines();
    let expected = MANIFEST_COLUMNS.join("\t");
    if lines.next() != Some(expected.as_str()) {
        return Err(corrupt_row(
            1,
            format!("expected the header `{}`", MANIFEST_COLUMNS.join(" ")),
        ));
    }
    let mut repo = Repository::new();
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [id, file, name, collection, class] = cols[..] else {
            return Err(corrupt_row(
                lineno,
                format!(
                    "expected {} columns, found {}",
                    MANIFEST_COLUMNS.len(),
                    cols.len()
                ),
            ));
        };
        // The largest id would leave no next id to hand out.
        let id: usize = id
            .parse()
            .ok()
            .filter(|&id| id < usize::MAX)
            .ok_or_else(|| corrupt_row(lineno, format!("bad value for id: {id:?}")))?;
        if !plain_file(file) {
            return Err(corrupt_row(
                lineno,
                format!("file {file:?} is not a file name inside the tree"),
            ));
        }
        let text = fs::read_to_string(dir.join(file))
            .map_err(|e| corrupt_row(lineno, format!("{file}: {e}")))?;
        let hypergraph =
            parse_hg_named(&text, name).map_err(|e| corrupt_row(lineno, format!("{file}: {e}")))?;
        repo.insert_entry(Entry {
            id,
            collection: collection.to_string(),
            class: class.to_string(),
            hypergraph,
            analysis: None,
        })
        .map_err(|_| {
            let last = repo.next_id() - 1;
            corrupt_row(lineno, format!("id {id} out of order (not after {last})"))
        })?;
    }
    Ok(repo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_instance, AnalysisConfig};
    use hyperbench_core::builder::hypergraph_from_edges;
    use hyperbench_core::HypergraphBuilder;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hyperbench-tree-test-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_repo() -> Repository {
        let mut repo = Repository::new();
        let tri =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        let rec = analyze_instance(&tri, &AnalysisConfig::default());
        let id = repo.insert(tri, "SPARQL", "CQ Application");
        repo.set_analysis(id, rec);
        repo.insert(
            hypergraph_from_edges(&[("e", &["x", "y"])]),
            "LUBM",
            "CQ Application",
        );
        repo
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        export(&small_repo(), &dir).unwrap();
        let imported = import(&dir).unwrap();
        assert_eq!(imported.len(), 2);
        let e0 = imported.entry(0);
        assert_eq!(e0.collection, "SPARQL");
        assert_eq!(e0.class, "CQ Application");
        assert_eq!(e0.hypergraph.num_edges(), 3);
        // Analyses live in the pack, not in the tree.
        assert!(e0.analysis.is_none());
        assert_eq!(imported.entry(1).collection, "LUBM");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_errors() {
        assert!(import(Path::new("/nonexistent/hyperbench")).is_err());
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        // export → import → export reproduces the manifest and the .hg
        // payloads byte for byte.
        let (dir1, dir2) = (tmpdir("bytes1"), tmpdir("bytes2"));
        export(&small_repo(), &dir1).unwrap();
        export(&import(&dir1).unwrap(), &dir2).unwrap();
        for file in ["index.tsv", "00000.hg", "00001.hg"] {
            assert_eq!(
                fs::read(dir1.join(file)).unwrap(),
                fs::read(dir2.join(file)).unwrap(),
                "{file} changed across export→import→export"
            );
        }
        assert_eq!(
            fs::read_to_string(dir1.join("index.tsv")).unwrap(),
            "id\tfile\tname\tcollection\tclass\n\
             0\t00000.hg\t\tSPARQL\tCQ Application\n\
             1\t00001.hg\t\tLUBM\tCQ Application\n"
        );
        fs::remove_dir_all(&dir1).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn columns_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in MANIFEST_COLUMNS {
            assert!(seen.insert(c), "duplicate column {c:?}");
        }
    }

    /// Exports the small repository, rewrites the manifest line at
    /// `line_index` through `f`, then imports.
    fn import_with_mangled_line(
        name: &str,
        line_index: usize,
        f: impl Fn(&str) -> String,
    ) -> Result<Repository, StoreError> {
        let dir = tmpdir(name);
        export(&small_repo(), &dir).unwrap();
        let index = fs::read_to_string(dir.join("index.tsv")).unwrap();
        let mangled: Vec<String> = index
            .lines()
            .enumerate()
            .map(|(i, l)| if i == line_index { f(l) } else { l.to_string() })
            .collect();
        fs::write(dir.join("index.tsv"), mangled.join("\n")).unwrap();
        let out = import(&dir);
        fs::remove_dir_all(&dir).unwrap();
        out
    }

    fn corrupt_message(r: Result<Repository, StoreError>) -> String {
        match r {
            Err(StoreError::Corrupt(m)) => m,
            other => panic!("expected StoreError::Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_foreign_header_is_refused_naming_the_columns() {
        // The old 16-column store layout, and its 15-column ancestor.
        let old = "id\tfile\tname\tcollection\tclass\tvertices\tedges\tarity\tdegree\t\
                   bip\tbmip3\tbmip4\tvc_dim\thw_upper\thw_lower\thw_timeout";
        for header in [old.to_string(), old.replacen("\tname", "", 1)] {
            let msg = corrupt_message(import_with_mangled_line("header", 0, |_| header.clone()));
            assert!(msg.contains("index.tsv line 1"), "message was: {msg}");
            assert!(
                msg.contains("id file name collection class"),
                "message was: {msg}"
            );
        }
    }

    #[test]
    fn names_survive_export_and_import() {
        let mut b = HypergraphBuilder::named("sparql/q7");
        b.add_edge("e", &["a", "b"]);
        let mut repo = Repository::new();
        repo.insert(b.build(), "SPARQL", "CQ Application");
        let dir = tmpdir("names");
        export(&repo, &dir).unwrap();
        assert_eq!(
            import(&dir).unwrap().entry(0).hypergraph.name(),
            "sparql/q7"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_row_names_file_and_line() {
        let msg = corrupt_message(import_with_mangled_line("cols", 1, |l| {
            let keep: Vec<&str> = l.split('\t').collect();
            keep[..keep.len() - 1].join("\t")
        }));
        assert!(msg.contains("index.tsv line 2"), "message was: {msg}");
        assert!(msg.contains("columns"), "message was: {msg}");
    }

    #[test]
    fn bad_numeric_field_names_field_and_line() {
        let msg = corrupt_message(import_with_mangled_line("numeric", 2, |l| {
            l.replacen('1', "not-a-number", 1)
        }));
        assert!(msg.contains("index.tsv line 3"), "message was: {msg}");
        assert!(msg.contains("id"), "message was: {msg}");
        assert!(msg.contains("not-a-number"), "message was: {msg}");
        let last = usize::MAX.to_string();
        let msg = corrupt_message(import_with_mangled_line("last-id", 2, |l| {
            l.replacen('1', &last, 1)
        }));
        assert!(msg.contains(&last), "message was: {msg}");
    }

    #[test]
    fn out_of_order_id_is_rejected() {
        // The *second* row regressing below the first is non-ascending;
        // a sparse (gapped) sequence is legal.
        let msg = corrupt_message(import_with_mangled_line("order", 2, |l| {
            let mut cols: Vec<&str> = l.split('\t').collect();
            cols[0] = "0";
            cols.join("\t")
        }));
        assert!(msg.contains("id 0 out of order"), "message was: {msg}");
    }

    #[test]
    fn a_file_outside_the_tree_is_refused() {
        let outside = tmpdir("outside");
        fs::create_dir_all(&outside).unwrap();
        let secret = outside.join("secret.hg");
        fs::write(&secret, "e(a,b).").unwrap();
        let absolute = secret.to_str().unwrap().to_string();
        for file in [
            absolute.as_str(),
            "../secret.hg",
            "sub/00000.hg",
            "./00000.hg",
            "00000.hg/",
            ".",
            "..",
            "",
        ] {
            let msg = corrupt_message(import_with_mangled_line("escape", 1, |l| {
                let mut cols: Vec<&str> = l.split('\t').collect();
                cols[1] = file;
                cols.join("\t")
            }));
            assert!(msg.contains("index.tsv line 2"), "{file:?}: {msg}");
            assert!(
                msg.contains("not a file name inside the tree"),
                "{file:?}: {msg}"
            );
        }
        fs::remove_dir_all(&outside).unwrap();
    }

    #[test]
    fn sparse_ids_roundtrip() {
        let dir = tmpdir("sparse");
        let mut repo = small_repo();
        repo.insert(
            hypergraph_from_edges(&[("g", &["p", "q"])]),
            "xcsp",
            "CSP Random",
        );
        repo.remove(1).unwrap();
        export(&repo, &dir).unwrap();
        let imported = import(&dir).unwrap();
        assert_eq!(
            imported.metas().map(|m| m.id).collect::<Vec<_>>(),
            vec![0, 2],
            "gap at id 1 survives export→import"
        );
        assert_eq!(imported.entry(2).collection, "xcsp");
        fs::remove_dir_all(&dir).unwrap();
    }
}
