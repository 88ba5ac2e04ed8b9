//! `hyperbench serve` in each of its modes, through the built binary:
//! a TSV tree is served read-only and answers exactly what its pack
//! answers, asking to write to a TSV tree fails with the commands that
//! would make it writable, and a writable pack keeps a put across a
//! crash. Beside them, `hyperbench analyze --dir` on a tree whose ids
//! have a gap.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use hyperbench_api::http::ResponseReader;
use hyperbench_core::format::parse_hg;
use hyperbench_repo::Repository;

fn hyperbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hyperbench"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyperbench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small TSV tree: chains of varied length over two collections.
fn write_tree(dir: &Path) -> usize {
    let mut repo = Repository::new();
    for i in 0..6 {
        let atoms: Vec<String> = (0..1 + i % 3)
            .map(|e| format!("d{i}e{e}(d{i}v{e},d{i}v{})", e + 1))
            .collect();
        let h = parse_hg(&format!("{}.", atoms.join(","))).unwrap();
        repo.insert(h, ["SPARQL", "TPC-H"][i % 2], "CQ Application");
    }
    hyperbench_repo::store::save(&repo, dir).unwrap();
    repo.len()
}

/// A running `hyperbench serve`, killed (SIGKILL) when dropped.
struct Served {
    child: Child,
    addr: SocketAddr,
}

impl Served {
    /// Starts `serve` with `args` on an ephemeral port and waits for its
    /// banner, which names the bound address.
    fn start(args: &[&str]) -> Served {
        let mut child = hyperbench()
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--spill", "off"])
            .args(["--threads", "2", "--workers", "1", "--log-level", "off"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hyperbench serve");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("read the banner");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in the banner {banner:?}"))
            .parse()
            .expect("a socket address");
        Served { child, addr }
    }

    /// `GET path`: (status, body bytes).
    fn get(&self, path: &str) -> (u16, Vec<u8>) {
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        let response = ResponseReader::new(TcpStream::connect(self.addr).unwrap())
            .exchange(request.as_bytes())
            .unwrap();
        (response.status, response.body)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_tsv_tree_answers_like_its_pack() {
    let dir = tmpdir("tsv-vs-pack");
    let entries = write_tree(&dir);
    let packed = hyperbench()
        .args(["pack", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(packed.status.success(), "{packed:?}");
    let pack = dir.join("repo.pack");
    let tsv = Served::start(&["--dir", dir.to_str().unwrap()]);
    let paged = Served::start(&["--pack", pack.to_str().unwrap()]);
    for id in 0..=entries {
        let path = format!("/v1/hypergraphs/{id}");
        let (status, body) = tsv.get(&path);
        assert_eq!(status, if id < entries { 200 } else { 404 }, "{path}");
        assert_eq!((status, body), paged.get(&path), "{path}");
    }
    drop((tsv, paged));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_walks_the_live_ids_of_a_sparse_tree() {
    let dir = tmpdir("analyze-sparse");
    let entries = write_tree(&dir);
    let mut repo = hyperbench_repo::store::load(&dir).unwrap();
    repo.remove(1).unwrap();
    hyperbench_repo::store::save(&repo, &dir).unwrap();
    let out = hyperbench()
        .args(["analyze", "--dir", dir.to_str().unwrap()])
        .args(["--timeout-ms", "100", "--kmax", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let analyzed = hyperbench_repo::store::load(&dir).unwrap();
    let ids: Vec<usize> = analyzed.metas().map(|m| m.id).collect();
    assert_eq!(ids, (0..entries).filter(|&id| id != 1).collect::<Vec<_>>());
    for meta in analyzed.metas() {
        assert!(meta.analysis.is_some(), "entry {} not analyzed", meta.id);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_writable_tsv_tree_is_refused_with_the_commands_that_pack_it() {
    let dir = tmpdir("tsv-writable");
    write_tree(&dir);
    let d = dir.to_str().unwrap();
    let out = hyperbench()
        .args(["serve", "--dir", d, "--writable", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success(), "serve --dir --writable must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let pack_it = format!("hyperbench pack --dir {d}");
    let serve_it = format!("hyperbench serve --pack {}/repo.pack --writable", d);
    let at = |needle: &str| {
        stderr
            .find(needle)
            .unwrap_or_else(|| panic!("stderr does not name `{needle}`:\n{stderr}"))
    };
    assert!(at(&pack_it) < at(&serve_it), "{stderr}");
    assert!(!dir.join("repo.pack.wal").exists() && !dir.join("repo.wal").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_put_to_a_writable_pack_survives_a_restart() {
    let dir = tmpdir("pack-writable");
    let entries = write_tree(&dir);
    let pack = dir.join("repo.pack");
    let repo = hyperbench_repo::store::load(&dir).unwrap();
    hyperbench_repo::store::pack::write_pack(&repo, &pack).unwrap();
    let args = ["--pack", pack.to_str().unwrap(), "--writable"];
    let doc = dir.join("fresh.hg");
    std::fs::write(&doc, "r(a,b),s(b,c),t(c,a).\n").unwrap();

    let served = Served::start(&args);
    let put = hyperbench()
        .args(["put", doc.to_str().unwrap()])
        .args([
            "--addr",
            &served.addr.to_string(),
            "--collection",
            "uploads",
        ])
        .output()
        .unwrap();
    assert!(put.status.success(), "{put:?}");
    let path = format!("/v1/hypergraphs/{entries}");
    let (status, before) = served.get(&path);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&before).contains("uploads"));
    drop(served); // SIGKILL: the put is only in the log

    let restarted = Served::start(&args);
    assert_eq!(restarted.get(&path), (200, before));
    drop(restarted);
    std::fs::remove_dir_all(&dir).unwrap();
}
