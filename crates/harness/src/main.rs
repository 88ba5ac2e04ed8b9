//! The `hyperbench` CLI: generate the benchmark, analyze hypergraphs,
//! compute decompositions and regenerate the paper's tables and figures.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Duration;

use hyperbench_core::format::{parse_hg_named, to_hg};
use hyperbench_core::properties::structural_properties;
use hyperbench_core::stats::size_metrics;
use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::driver::{check_ghd_opts, check_hd_opts, GhdAlgorithm, Outcome};
use hyperbench_harness::experiments;
use hyperbench_harness::{analyze_benchmark, ExperimentConfig};
use hyperbench_repo::{analyze_instance, AnalysisConfig, Repository};

const USAGE: &str = "\
hyperbench — a Rust reproduction of the HyperBench benchmark and tool

USAGE:
  hyperbench experiment <table1|table2|fig3|fig4|fig5|table3|table4|table5|table6|summary|all>
             [--scale F] [--seed N] [--timeout-ms N] [--ghd-timeout-ms N]
             [--kmax N] [--threads N] [--jobs N]
  hyperbench experiments-md [--out FILE] [same flags as experiment]
  hyperbench gen --out DIR [--scale F] [--seed N]
  hyperbench analyze --dir DIR [--timeout-ms N] [--kmax N] [--jobs N]
  hyperbench stats <FILE.hg>
  hyperbench decompose <FILE.hg> --k N [--algo hd|globalbip|localbip|balsep|hybrid]
             [--timeout-ms N] [--jobs N]
  hyperbench pack --dir DIR [--out FILE]
  hyperbench serve (--dir DIR | --pack FILE) [--addr HOST:PORT] [--threads N]
             [--workers N] [--queue N] [--cache N] [--timeout-ms N] [--kmax N]
             [--jobs N] [--spill FILE|off] [--reactor-threads N] [--writable]
  hyperbench route --map FILE [--addr HOST:PORT] [--probe-interval-ms N]
             [--breaker-threshold N] [--breaker-cooldown-ms N] [--no-hedge]
             [--offload-threads N] [--reactor-threads N]
  hyperbench put <FILE.hg> [--addr HOST:PORT] [--id N] [--collection C] [--class C]
  hyperbench rm <ID> [--addr HOST:PORT]
  hyperbench query \"<HBQL>\" [--addr HOST:PORT] [--cursor TOKEN]
  hyperbench help

Every command also accepts `--log-level error|warn|info|debug|trace|off`
to set the structured-log threshold on stderr (default info; the
HYPERBENCH_LOG environment variable sets the same threshold, with the
flag winning when both are given).

`--jobs N` sets the decomposition engine's per-search worker count
(1 = serial, 0 = all cores). Parallel searches report the same widths
as serial ones; for `serve` the flag is also the ceiling for the
`jobs` field of `POST /v1/analyses` requests.

`serve` runs the event-driven epoll reactor with `max(1, threads / 2)`
event loops (override with `--reactor-threads N`). `--writable` accepts
`POST`/`PUT`/`DELETE` on `/v1/hypergraphs`, committing through a
fsynced write-ahead log next to the repository (packs also checkpoint
committed writes back into their pages); without it, writes answer 403.

`route` runs the sharding front tier over a static shard map: one line
per shard listing its upstream `host:port` addresses (first = primary,
the rest read replicas; `#` starts a comment). The router speaks the
same /v1 contract, hash-partitions ids across the shards, fails reads
over to healthy replicas (hedging slow ones unless --no-hedge), routes
writes to the shard primary, and merges list/query pages across the
fleet. `POST /admin/drain/{shard}` removes a shard without dropping
in-flight requests; `GET /admin/topology` reports per-upstream health.

`put` stores (or with `--id N` replaces) a hypergraph on a running
writable server and prints the receipt; `rm` removes one by id. Both
talk to `--addr` (default 127.0.0.1:8080).

`query` runs one HBQL query against a running server, e.g.
  hyperbench query 'SELECT * WHERE hw_upper <= 2 ORDER BY edges DESC LIMIT 5'
  hyperbench query 'SELECT collection, COUNT(*), AVG(arity) GROUP BY collection'
Row pages print a summary table plus the continuation cursor; aggregate
queries print one JSON object per group.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

/// Flags that are switches: present means "true", and they never
/// consume the following argument. Everything else keeps the historical
/// "--flag VALUE" shape with its clear missing-value error.
const BOOLEAN_FLAGS: &[&str] = &["writable", "no-hedge"];

struct Flags {
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut values = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    values.push((name.to_string(), "true".to_string()));
                    i += 1;
                    continue;
                }
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                values.push((name.to_string(), v.clone()));
                i += 2;
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Flags { values, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

/// Resolve `--addr` (default 127.0.0.1:8080) into an API client for the
/// write verbs.
fn write_client(flags: &Flags) -> Result<hyperbench_api::Client, String> {
    use std::net::ToSocketAddrs;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:8080");
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}"))?;
    Ok(hyperbench_api::Client::new(resolved))
}

/// Binds and runs the sharding front tier (Linux-only: it rides the
/// epoll reactor). Prints `ADDR <ip:port>` before serving, same
/// contract as the server binaries, so harnesses can parse the port.
#[cfg(target_os = "linux")]
fn route(
    flags: &Flags,
    map: &hyperbench_router::ShardMap,
    opts: hyperbench_router::RouterOptions,
) -> Result<(), String> {
    use std::io::Write;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:8080");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let reactor = hyperbench_server::reactor::ReactorOptions {
        threads: flags.get_parsed("reactor-threads", 2)?,
        ..Default::default()
    };
    let offload_threads = flags.get_parsed("offload-threads", 16)?;
    println!("ADDR {}", listener.local_addr().map_err(|e| e.to_string())?);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    hyperbench_router::serve(listener, map, opts, reactor, offload_threads, shutdown)
        .map_err(|e| e.to_string())
}

#[cfg(not(target_os = "linux"))]
fn route(
    _flags: &Flags,
    _map: &hyperbench_router::ShardMap,
    _opts: hyperbench_router::RouterOptions,
) -> Result<(), String> {
    Err("`hyperbench route` requires Linux (the epoll reactor)".to_string())
}

fn print_receipt(receipt: &hyperbench_api::WriteReceipt) {
    println!("outcome:       {}", receipt.outcome.as_str());
    println!("id:            {}", receipt.id);
    match receipt.seq {
        Some(seq) => println!("seq:           {seq}"),
        None => println!("seq:           - (no record written)"),
    }
    match receipt.content_hash {
        Some(hash) => println!("content-hash:  {hash:016x}"),
        None => println!("content-hash:  - (entry removed)"),
    }
}

fn experiment_config(flags: &Flags) -> Result<ExperimentConfig, String> {
    let d = ExperimentConfig::default();
    Ok(ExperimentConfig {
        seed: flags.get_parsed("seed", d.seed)?,
        scale: flags.get_parsed("scale", d.scale)?,
        per_check: Duration::from_millis(
            flags.get_parsed("timeout-ms", d.per_check.as_millis() as u64)?,
        ),
        k_max: flags.get_parsed("kmax", d.k_max)?,
        vc_budget: flags.get_parsed("vc-budget", d.vc_budget)?,
        ghd_timeout: Duration::from_millis(
            flags.get_parsed("ghd-timeout-ms", d.ghd_timeout.as_millis() as u64)?,
        ),
        threads: flags.get_parsed("threads", d.threads)?,
        jobs: flags.get_parsed("jobs", d.jobs)?,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".to_string());
    };
    let flags = Flags::parse(&args[1..])?;
    if let Some(level) = flags.get("log-level") {
        let threshold = hyperbench_telemetry::log::parse_threshold(level)
            .ok_or_else(|| format!("invalid value for --log-level: {level}"))?;
        hyperbench_telemetry::log::set_level(threshold);
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "experiment" => {
            let id = flags
                .positional
                .first()
                .ok_or("experiment id required")?
                .clone();
            let cfg = experiment_config(&flags)?;
            eprintln!(
                "generating benchmark (seed {}, scale {:.3}) and analyzing…",
                cfg.seed, cfg.scale
            );
            let bench = analyze_benchmark(&cfg);
            eprintln!("analyzed {} instances", bench.instances.len());
            if id == "all" {
                for r in experiments::run_all(&bench) {
                    println!("{}", r.render());
                }
            } else {
                let r = experiments::run(&id, &bench)
                    .ok_or_else(|| format!("unknown experiment id {id}"))?;
                println!("{}", r.render());
            }
            Ok(())
        }
        "experiments-md" => {
            let cfg = experiment_config(&flags)?;
            let out = flags.get("out").unwrap_or("EXPERIMENTS.md").to_string();
            eprintln!(
                "generating benchmark (seed {}, scale {:.3}) and analyzing…",
                cfg.seed, cfg.scale
            );
            let bench = analyze_benchmark(&cfg);
            let mut md = String::new();
            md.push_str("# EXPERIMENTS — paper vs. measured\n\n");
            md.push_str(&format!(
                "Configuration: seed {}, scale {:.3} ({} instances), Check(HD,k) timeout {:?}, \
                 GHD/FHD timeout {:?}, k_max {}.\n\n\
                 The paper ran the full 3,648-instance benchmark with 3600 s timeouts on a \
                 cluster of 2×12-core Xeon machines; this run is laptop-scale. Absolute counts \
                 scale with the instance budget and timeouts — the *shapes* (who wins, where \
                 timeouts cluster, how often hw = ghw) are the reproduction targets.\n\n",
                cfg.seed,
                cfg.scale,
                bench.instances.len(),
                cfg.per_check,
                cfg.ghd_timeout,
                cfg.k_max,
            ));
            for r in experiments::run_all(&bench) {
                md.push_str(&r.render());
                md.push('\n');
            }
            std::fs::write(&out, md).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
            Ok(())
        }
        "gen" => {
            let out = PathBuf::from(flags.get("out").ok_or("--out DIR required")?);
            let seed: u64 = flags.get_parsed("seed", 42)?;
            let scale: f64 = flags.get_parsed("scale", 0.05)?;
            let instances = hyperbench_datagen::generate_benchmark(seed, scale);
            let mut repo = Repository::new();
            for inst in instances {
                repo.insert(inst.hypergraph, inst.collection, inst.class.name());
            }
            hyperbench_repo::store::save(&repo, &out).map_err(|e| e.to_string())?;
            println!("wrote {} hypergraphs to {}", repo.len(), out.display());
            Ok(())
        }
        "analyze" => {
            let dir = PathBuf::from(flags.get("dir").ok_or("--dir DIR required")?);
            let per_check: u64 = flags.get_parsed("timeout-ms", 250)?;
            let k_max: usize = flags.get_parsed("kmax", 8)?;
            let jobs: usize = flags.get_parsed("jobs", 1)?;
            let mut repo = hyperbench_repo::store::load(&dir).map_err(|e| e.to_string())?;
            let cfg = AnalysisConfig {
                per_check: Duration::from_millis(per_check),
                k_max,
                vc_budget: 2_000_000,
                jobs,
            };
            let n = repo.len();
            for id in 0..n {
                let rec = analyze_instance(&repo.entry(id).hypergraph, &cfg);
                repo.set_analysis(id, rec);
            }
            hyperbench_repo::store::save(&repo, &dir).map_err(|e| e.to_string())?;
            println!("analyzed {n} hypergraphs; index updated");
            Ok(())
        }
        "stats" => {
            let file = flags.positional.first().ok_or("FILE.hg required")?;
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let h = parse_hg_named(&text, file).map_err(|e| e.to_string())?;
            let m = size_metrics(&h);
            let p = structural_properties(&h, 2_000_000);
            println!("file:      {file}");
            println!("vertices:  {}", m.vertices);
            println!("edges:     {}", m.edges);
            println!("arity:     {}", m.arity);
            println!("degree:    {}", p.degree);
            println!("BIP:       {}", p.bip);
            println!("3-BMIP:    {}", p.bmip3);
            println!("4-BMIP:    {}", p.bmip4);
            match p.vc_dim {
                Some(v) => println!("VC-dim:    {v}"),
                None => println!("VC-dim:    timeout"),
            }
            Ok(())
        }
        "pack" => {
            let dir = PathBuf::from(flags.get("dir").ok_or("--dir DIR required")?);
            let out = flags
                .get("out")
                .map(PathBuf::from)
                .unwrap_or_else(|| dir.join("repo.pack"));
            let repo = hyperbench_repo::store::load(&dir).map_err(|e| e.to_string())?;
            hyperbench_repo::store::pack::write_pack(&repo, &out).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!(
                "packed {} hypergraphs from {} into {} ({bytes} bytes)",
                repo.len(),
                dir.display(),
                out.display()
            );
            Ok(())
        }
        "serve" => {
            let dir = flags.get("dir").map(PathBuf::from);
            let pack = flags.get("pack").map(PathBuf::from);
            let d = hyperbench_server::ServerConfig::default();
            // The analysis cache spills next to the repository by
            // default, so restarts come up warm; `--spill off` keeps it
            // memory-only and `--spill FILE` moves it.
            let spill = match flags.get("spill") {
                Some("off") => None,
                Some(path) => Some(PathBuf::from(path)),
                None => match (&dir, &pack) {
                    (Some(dir), _) => Some(dir.join("cache.spill")),
                    (None, Some(pack)) => Some(pack.with_extension("pack.spill")),
                    (None, None) => None,
                },
            };
            let config = hyperbench_server::ServerConfig {
                addr: flags.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
                threads: flags.get_parsed("threads", d.threads)?,
                analysis_workers: flags.get_parsed("workers", d.analysis_workers)?,
                job_queue_capacity: flags.get_parsed("queue", d.job_queue_capacity)?,
                cache_capacity: flags.get_parsed("cache", d.cache_capacity)?,
                analysis: AnalysisConfig {
                    per_check: Duration::from_millis(flags.get_parsed("timeout-ms", 250)?),
                    k_max: flags.get_parsed("kmax", 8)?,
                    vc_budget: 2_000_000,
                    jobs: flags.get_parsed("jobs", 1)?,
                },
                spill,
                // serve_dir_opts / serve_pack_opts derive the WAL (and,
                // for packs, the checkpoint target) when --writable is on.
                wal: None,
                checkpoint_pack: None,
            };
            let serve_opts = hyperbench_server::ServeOptions {
                writable: matches!(flags.get("writable"), Some("true") | Some("1")),
                reactor_threads: match flags.get("reactor-threads") {
                    None => None,
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| format!("invalid value for --reactor-threads: {v}"))?,
                    ),
                },
            };
            match (dir, pack) {
                (Some(_), Some(_)) => Err("--dir and --pack are mutually exclusive".to_string()),
                (Some(dir), None) => hyperbench_server::serve_dir_opts(&dir, &config, &serve_opts),
                (None, Some(pack)) => {
                    hyperbench_server::serve_pack_opts(&pack, &config, &serve_opts)
                }
                (None, None) => Err("--dir DIR or --pack FILE required".to_string()),
            }
        }
        "route" => {
            let map_path = PathBuf::from(flags.get("map").ok_or("--map FILE required")?);
            let map = hyperbench_router::ShardMap::load(&map_path).map_err(|e| e.to_string())?;
            let d = hyperbench_router::RouterOptions::default();
            let opts = hyperbench_router::RouterOptions {
                breaker_threshold: flags.get_parsed("breaker-threshold", d.breaker_threshold)?,
                breaker_cooldown: Duration::from_millis(
                    flags
                        .get_parsed("breaker-cooldown-ms", d.breaker_cooldown.as_millis() as u64)?,
                ),
                probe_interval: Duration::from_millis(
                    flags.get_parsed("probe-interval-ms", d.probe_interval.as_millis() as u64)?,
                ),
                hedge: !matches!(flags.get("no-hedge"), Some("true") | Some("1")),
                ..d
            };
            route(&flags, &map, opts)
        }
        "put" => {
            let file = flags.positional.first().ok_or("FILE.hg required")?;
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let mut request = hyperbench_api::WriteRequest::new(text);
            if let Some(c) = flags.get("collection") {
                request.collection = c.to_string();
            }
            if let Some(c) = flags.get("class") {
                request.class = c.to_string();
            }
            let client = write_client(&flags)?;
            let receipt = match flags.get("id") {
                Some(v) => {
                    let id: usize = v
                        .parse()
                        .map_err(|_| format!("invalid value for --id: {v}"))?;
                    client.put(id, &request)
                }
                None => client.put_new(&request),
            }
            .map_err(|e| e.to_string())?;
            print_receipt(&receipt);
            Ok(())
        }
        "rm" => {
            let id: usize = flags
                .positional
                .first()
                .ok_or("ID required")?
                .parse()
                .map_err(|_| "ID must be a non-negative integer".to_string())?;
            let receipt = write_client(&flags)?
                .delete(id)
                .map_err(|e| e.to_string())?;
            print_receipt(&receipt);
            Ok(())
        }
        "query" => {
            let text = flags
                .positional
                .first()
                .ok_or("HBQL query string required")?;
            let mut request = hyperbench_api::QueryRequest::new(text.clone());
            request.cursor = flags.get("cursor").map(str::to_string);
            match write_client(&flags)?
                .query(&request)
                .map_err(|e| e.to_string())?
            {
                hyperbench_api::QueryResponse::Rows(page) => {
                    println!(
                        "{:>6}  {:<14} {:<18} {:>8} {:>6} {:>6} {:>9} {:>9}",
                        "id",
                        "collection",
                        "class",
                        "vertices",
                        "edges",
                        "arity",
                        "hw_upper",
                        "hw_lower"
                    );
                    for s in &page.items {
                        println!(
                            "{:>6}  {:<14} {:<18} {:>8} {:>6} {:>6} {:>9} {:>9}",
                            s.id,
                            s.collection,
                            s.class,
                            s.vertices,
                            s.edges,
                            s.arity,
                            s.hw_upper.map_or("-".to_string(), |v| v.to_string()),
                            s.hw_lower.map_or("-".to_string(), |v| v.to_string()),
                        );
                    }
                    println!("total: {} match(es)", page.total);
                    if let Some(cursor) = &page.next_cursor {
                        println!("next page: --cursor {cursor}");
                    }
                }
                hyperbench_api::QueryResponse::Groups { group_by, groups } => {
                    match group_by {
                        Some(field) => println!("{} group(s) by {field}:", groups.len()),
                        None => println!("1 global group:"),
                    }
                    for g in &groups {
                        println!("{g}");
                    }
                }
            }
            Ok(())
        }
        "decompose" => {
            let file = flags.positional.first().ok_or("FILE.hg required")?;
            let k: usize = flags.get_parsed("k", 0)?;
            if k == 0 {
                return Err("--k N required (N >= 1)".to_string());
            }
            let timeout: u64 = flags.get_parsed("timeout-ms", 5_000)?;
            let algo = flags.get("algo").unwrap_or("hd");
            let opts = hyperbench_decomp::Options::with_jobs(flags.get_parsed("jobs", 1)?);
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let h = parse_hg_named(&text, file).map_err(|e| e.to_string())?;
            let budget = Budget::with_timeout(Duration::from_millis(timeout));
            let cfg = SubedgeConfig::default();
            let outcome = match algo {
                "hd" => check_hd_opts(&h, k, &budget, &opts),
                "globalbip" => check_ghd_opts(&h, k, GhdAlgorithm::GlobalBip, &budget, &cfg, &opts),
                "localbip" => check_ghd_opts(&h, k, GhdAlgorithm::LocalBip, &budget, &cfg, &opts),
                "balsep" => check_ghd_opts(&h, k, GhdAlgorithm::BalSep, &budget, &cfg, &opts),
                "hybrid" => {
                    let depth = flags.get_parsed("switch-depth", 2usize)?;
                    hyperbench_decomp::driver::check_ghd_hybrid_opts(
                        &h, k, depth, &budget, &cfg, &opts,
                    )
                }
                other => return Err(format!("unknown algorithm {other}")),
            };
            match outcome {
                Outcome::Yes(d) => {
                    println!(
                        "yes: {} of width {} found ({} nodes)",
                        if algo == "hd" { "HD" } else { "GHD" },
                        d.width(),
                        d.len()
                    );
                    print!("{}", d.display(&h));
                }
                Outcome::No => println!("no: width > {k} certified"),
                Outcome::Timeout => println!("timeout"),
            }
            let _ = to_hg(&h);
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}
