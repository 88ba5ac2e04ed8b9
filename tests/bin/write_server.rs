//! Writable pack-backed server for the crash-recovery suite: binds an
//! ephemeral port over `<dir>/repo.pack` (WAL at `<dir>/repo.pack.wal`),
//! prints `ADDR <ip:port>` on stdout, and serves until killed — the
//! test `kill -9`s this process mid-write and restarts it to assert
//! recovery.

use std::path::PathBuf;

use hyperbench_repo::Repository;
use hyperbench_server::{Server, ServerConfig};

fn main() {
    let dir = PathBuf::from(std::env::args().nth(1).expect("usage: write_server DIR"));
    let pack = dir.join("repo.pack");
    let repo = Repository::open_pack(&pack).expect("open pack");
    let server = Server::bind(
        repo,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            analysis_workers: 1,
            job_queue_capacity: 8,
            cache_capacity: 8,
            writable_pack: Some(pack),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    // The parent parses this line; flush so it never sits in a buffer.
    println!("ADDR {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().expect("flush addr");
    server.run();
}
