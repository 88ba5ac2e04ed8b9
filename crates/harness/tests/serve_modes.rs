//! `hyperbench serve --pack` through the built binary: a tree imported
//! by `hyperbench pack` answers exactly what the same repository packed
//! in process answers, and a writable pack keeps a put across a crash.
//! Beside them, `hyperbench analyze --pack` on a pack whose ids have a
//! gap, and its refusal to rewrite a pack whose log is not folded in.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use hyperbench_api::http::ResponseReader;
use hyperbench_core::format::parse_hg;
use hyperbench_repo::store::{pack::write_pack, tree};
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

/// Six chains of varied length over two collections.
fn corpus() -> Repository {
    let mut repo = Repository::new();
    for i in 0..6 {
        let atoms: Vec<String> = (0..1 + i % 3)
            .map(|e| format!("d{i}e{e}(d{i}v{e},d{i}v{})", e + 1))
            .collect();
        let h = parse_hg(&format!("{}.", atoms.join(","))).unwrap();
        repo.insert(h, ["SPARQL", "TPC-H"][i % 2], "CQ Application");
    }
    repo
}

/// `hyperbench pack --dir dir`, which writes `dir/repo.pack`.
fn pack_tree(dir: &Path) -> PathBuf {
    let packed = hyperbench()
        .args(["pack", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(packed.status.success(), "{packed:?}");
    dir.join("repo.pack")
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
    let dir = tmpdir("tree-vs-pack");
    let repo = corpus();
    let entries = repo.len();
    tree::export(&repo, &dir).unwrap();
    let imported = pack_tree(&dir);
    let in_process = dir.join("in-process.pack");
    write_pack(&repo, &in_process).unwrap();
    let tree = Served::start(&["--pack", imported.to_str().unwrap()]);
    let paged = Served::start(&["--pack", in_process.to_str().unwrap()]);
    for id in 0..=entries {
        let path = format!("/v1/hypergraphs/{id}");
        let (status, body) = tree.get(&path);
        assert_eq!(status, if id < entries { 200 } else { 404 }, "{path}");
        assert_eq!((status, body), paged.get(&path), "{path}");
    }
    drop((tree, paged));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_walks_the_live_ids_of_a_sparse_tree() {
    let dir = tmpdir("analyze-sparse");
    let mut repo = corpus();
    let entries = repo.len();
    repo.remove(1).unwrap();
    tree::export(&repo, &dir).unwrap();
    let pack = pack_tree(&dir);
    let out = hyperbench()
        .args(["analyze", "--pack", pack.to_str().unwrap()])
        .args(["--timeout-ms", "100", "--kmax", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let live: Vec<usize> = (0..entries).filter(|&id| id != 1).collect();
    let analyzed = Repository::open_pack(&pack).unwrap();
    assert_eq!(analyzed.metas().map(|m| m.id).collect::<Vec<_>>(), live);
    for meta in analyzed.metas() {
        assert!(meta.analysis.is_some(), "entry {} not analyzed", meta.id);
    }
    // The served pack answers a width predicate over what was analysed:
    // every chain is acyclic.
    let served = Served::start(&["--pack", pack.to_str().unwrap()]);
    let query = served.addr.to_string();
    let out = hyperbench()
        .args(["query", "SELECT * WHERE hw_upper <= 1", "--addr", &query])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<usize> = stdout
        .lines()
        .skip(1)
        .map_while(|l| l.split_whitespace().next()?.parse().ok())
        .collect();
    assert_eq!(ids, live, "{stdout}");
    assert!(
        stdout.contains(&format!("total: {} match(es)", live.len())),
        "{stdout}"
    );
    drop(served);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_refuses_a_pack_whose_log_holds_records() {
    let dir = tmpdir("analyze-wal");
    tree::export(&corpus(), &dir).unwrap();
    let pack = pack_tree(&dir);
    let wal = dir.join("repo.pack.wal");
    std::fs::write(&wal, b"not folded yet").unwrap();
    let before = std::fs::read(&pack).unwrap();
    let p = pack.to_str().unwrap();
    let out = hyperbench()
        .args(["analyze", "--pack", p])
        .output()
        .unwrap();
    assert!(!out.status.success(), "analyze over a live log must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("hyperbench serve --pack {p} --writable")),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read(&pack).unwrap(),
        before,
        "the pack was rewritten"
    );
    // An empty log is no debt.
    std::fs::write(&wal, b"").unwrap();
    let out = hyperbench()
        .args(["analyze", "--pack", p, "--timeout-ms", "100", "--kmax", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_put_to_a_writable_pack_survives_a_restart() {
    let dir = tmpdir("pack-writable");
    let repo = corpus();
    let entries = repo.len();
    let pack = dir.join("repo.pack");
    write_pack(&repo, &pack).unwrap();
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
