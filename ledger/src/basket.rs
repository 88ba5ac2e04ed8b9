//! The `analyze` basket: a fixed parameter table over generated `.hg`
//! families with known widths. The seed only salts vertex and edge
//! names (fresh content hashes per seed, phase and round) and shuffles
//! the order of requests, so the search work is a function of the
//! declared parameters, not of the seed.

use std::time::{Duration, Instant};

use hyperbench_api::dto::AnalyzeMethod;
use hyperbench_core::{Hypergraph, HypergraphBuilder};
use hyperbench_datagen::cspother::pebbling_grid;
use hyperbench_repo::{analyze_instance_retaining, AnalysisConfig};

use crate::stats::Rng;

/// The per-`Check` timeout `analyze` serves with (`--timeout-ms`).
pub const TIMEOUT_MS: u64 = 8000;

/// A structural family and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `datagen::cspother::pebbling_grid(r, c)`: one ternary edge per
    /// cell over the cell and its right and lower neighbours.
    Pebbling(usize, usize),
    /// The r×c grid graph: one binary edge per adjacent pair.
    Grid(usize, usize),
    /// The complete graph on n vertices, one binary edge per pair.
    Clique(usize),
    /// A cycle of n binary edges with `chords` evenly spaced chords,
    /// each joining a vertex to the one opposite.
    ChordCycle(usize, usize),
}

/// One basket entry: a family instance and its calibrated widths.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub family: Family,
    pub hw: usize,
    pub ghw: usize,
    /// Whether BalSep, LocalBIP and GlobalBIP each decide k = ghw − 1
    /// and k = ghw on their own well inside the budget; only the race
    /// of all three has to on the other rows. These rows make up the
    /// single-algorithm probes (`decomp.balsep_ms` and siblings).
    pub each_ghd_decides: bool,
}

const fn item(family: Family, hw: usize, ghw: usize, each_ghd_decides: bool) -> Item {
    Item {
        family,
        hw,
        ghw,
        each_ghd_decides,
    }
}

use Family::{ChordCycle, Clique, Grid, Pebbling};

/// The calibrated table (see README.md for the measured headroom):
/// every row is analyzed by hd, ghd and fhd, every `Check` decides, and
/// the slowest single check on seeds 1–3 took 0.15 s of the 8 s budget.
pub const BASKET: [Item; 18] = [
    item(Pebbling(3, 5), 2, 2, true),
    item(Pebbling(4, 4), 3, 3, true),
    item(Pebbling(4, 6), 3, 3, false),
    item(Pebbling(5, 5), 3, 3, false),
    item(Pebbling(5, 6), 3, 3, false),
    item(Grid(3, 6), 2, 2, true),
    item(Grid(4, 4), 3, 3, true),
    item(Grid(4, 6), 3, 3, true),
    item(Grid(4, 8), 3, 3, false),
    item(Grid(5, 5), 3, 3, false),
    item(Clique(6), 3, 3, true),
    item(Clique(7), 4, 4, false),
    item(ChordCycle(12, 3), 3, 3, true),
    item(ChordCycle(20, 5), 3, 3, true),
    item(ChordCycle(30, 6), 3, 3, true),
    item(ChordCycle(32, 2), 2, 2, true),
    item(ChordCycle(40, 8), 3, 3, false),
    item(ChordCycle(48, 6), 3, 3, false),
];

impl Family {
    pub fn label(&self) -> String {
        match self {
            Pebbling(r, c) => format!("pebbling {r}x{c}"),
            Grid(r, c) => format!("grid {r}x{c}"),
            Clique(n) => format!("clique {n}"),
            ChordCycle(n, k) => format!("cycle {n} + {k} chords"),
        }
    }

    /// The instance with its canonical (unsalted) names.
    pub fn build(&self) -> Hypergraph {
        let mut b = HypergraphBuilder::named(self.label()).dedupe_edges(true);
        match *self {
            Pebbling(r, c) => return pebbling_grid(&self.label(), r, c),
            Grid(r, c) => {
                let v = |i: usize, j: usize| format!("g{i}_{j}");
                for i in 0..r {
                    for j in 0..c {
                        if j + 1 < c {
                            b.add_edge(&format!("h{i}_{j}"), &[&v(i, j), &v(i, j + 1)]);
                        }
                        if i + 1 < r {
                            b.add_edge(&format!("v{i}_{j}"), &[&v(i, j), &v(i + 1, j)]);
                        }
                    }
                }
            }
            Clique(n) => {
                for i in 0..n {
                    for j in i + 1..n {
                        b.add_edge(&format!("e{i}_{j}"), &[&format!("k{i}"), &format!("k{j}")]);
                    }
                }
            }
            ChordCycle(n, chords) => {
                let v = |i: usize| format!("c{}", i % n);
                for i in 0..n {
                    b.add_edge(&format!("r{i}"), &[&v(i), &v(i + 1)]);
                }
                for k in 0..chords {
                    let a = k * n / chords;
                    b.add_edge(&format!("x{k}"), &[&v(a), &v(a + n / 2)]);
                }
            }
        }
        b.build()
    }
}

/// `.hg` text of `h` with `salt` appended to every vertex and edge
/// name: the same structure in the same order under a fresh content
/// hash.
pub fn salted(h: &Hypergraph, salt: &str) -> String {
    let edges: Vec<String> = h
        .edge_ids()
        .map(|e| {
            let vertices: Vec<String> = h
                .edge(e)
                .iter()
                .map(|&v| format!("{}{salt}", h.vertex_name(v)))
                .collect();
            format!("{}{salt}({})", h.edge_name(e), vertices.join(","))
        })
        .collect();
    format!("{}.", edges.join(",\n"))
}

/// One scripted analysis request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`BASKET`].
    pub item: usize,
    pub method: AnalyzeMethod,
}

/// Every (item, method) pair of the tables, shuffled by the seed.
pub fn requests(seed: u64, lane: u64) -> Vec<Request> {
    let mut all = Vec::new();
    for item in 0..BASKET.len() {
        for method in [AnalyzeMethod::Hd, AnalyzeMethod::Ghd, AnalyzeMethod::Fhd] {
            all.push(Request { item, method });
        }
    }
    Rng::new(seed ^ (lane + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)).shuffle(&mut all);
    all
}

/// The heaviest third of the hd and ghd requests (by calibrated width,
/// then size): what the solo phase gives both cores to.
pub fn heaviest_third() -> Vec<Request> {
    let mut all: Vec<Request> = requests(0, 0)
        .into_iter()
        .filter(|r| r.method != AnalyzeMethod::Fhd)
        .collect();
    all.sort_by_key(|r| {
        let item = &BASKET[r.item];
        let h = item.family.build();
        (
            std::cmp::Reverse(item.hw),
            std::cmp::Reverse(h.num_edges()),
            r.item,
            r.method.as_str(),
        )
    });
    all.truncate(all.len() / 3);
    all
}

/// `ledger basket`: analyzes every table row in-process, serially,
/// under the served budget, and prints the slowest single `Check` of
/// each against a quarter of the timeout.
pub fn headroom(seeds: &[u64]) -> Result<i32, String> {
    let cfg = AnalysisConfig {
        per_check: Duration::from_millis(TIMEOUT_MS),
        k_max: 8,
        vc_budget: 2_000_000,
        jobs: 1,
    };
    let quarter = Duration::from_millis(TIMEOUT_MS / 4);
    let mut bad = 0;
    println!(
        "{:<24} {:<4} {:>4} {:>6} {:>10} {:>12}  verdict",
        "instance", "meth", "seed", "width", "total ms", "slowest ms"
    );
    for &seed in seeds {
        for request in requests(seed, 0) {
            let entry = &BASKET[request.item];
            let text = salted(&entry.family.build(), &format!("s{seed}"));
            let h = hyperbench_core::format::parse_hg(&text).map_err(|e| e.to_string())?;
            let started = Instant::now();
            let analyzed = analyze_instance_retaining(&h, &cfg, request.method);
            let total = started.elapsed();
            let slowest = analyzed
                .record
                .hw_steps
                .iter()
                .map(|s| s.2)
                .max()
                .unwrap_or_default();
            let want = match request.method {
                AnalyzeMethod::Ghd => entry.ghw,
                _ => entry.hw,
            };
            let decided = !analyzed.record.hw_timed_out
                && analyzed.record.hw_upper == Some(want)
                && analyzed.record.hw_lower == want;
            let verdict = if !decided {
                bad += 1;
                format!(
                    "FAIL: got [{}, {:?}] timed_out={}",
                    analyzed.record.hw_lower,
                    analyzed.record.hw_upper,
                    analyzed.record.hw_timed_out
                )
            } else if slowest > quarter {
                bad += 1;
                "FAIL: slowest check above a quarter of the timeout".to_string()
            } else {
                "ok".to_string()
            };
            println!(
                "{:<24} {:<4} {:>4} {:>6} {:>10.1} {:>12.1}  {verdict}",
                entry.family.label(),
                request.method.as_str(),
                seed,
                want,
                total.as_secs_f64() * 1000.0,
                slowest.as_secs_f64() * 1000.0
            );
        }
    }
    algorithms();
    println!("ledger basket: {bad} finding(s)");
    Ok(if bad == 0 { 0 } else { 1 })
}

/// Each `Check` algorithm alone, serially, at k = width − 1 and width:
/// which rows the single-algorithm probes can use (`decomp.*_ms`).
fn algorithms() {
    use hyperbench_core::subedges::SubedgeConfig;
    use hyperbench_decomp::driver::{check_ghd_opts, check_hd_opts, GhdAlgorithm};
    use hyperbench_decomp::{Budget, Options};
    let budget = || Budget::with_timeout(Duration::from_millis(TIMEOUT_MS / 4));
    let (serial, cfg) = (Options::serial(), SubedgeConfig::default());
    println!(
        "\n{:<24} {:>22} {:>22} {:>22} {:>22}",
        "instance (no ms / yes ms)", "detk", "balsep", "localbip", "globalbip"
    );
    for item in &BASKET {
        let h = item.family.build();
        let mut line = format!("{:<24}", item.family.label());
        for algo in [
            None,
            Some(GhdAlgorithm::BalSep),
            Some(GhdAlgorithm::LocalBip),
            Some(GhdAlgorithm::GlobalBip),
        ] {
            let mut cell = String::new();
            for k in [item.hw - 1, item.hw] {
                let started = Instant::now();
                let outcome = match algo {
                    None => check_hd_opts(&h, k, &budget(), &serial),
                    Some(a) => check_ghd_opts(&h, k, a, &budget(), &cfg, &serial),
                };
                cell.push_str(&format!(
                    " {}:{:.1}",
                    outcome.label(),
                    started.elapsed().as_secs_f64() * 1000.0
                ));
            }
            line.push_str(&format!(" {cell:>22}"));
        }
        println!("{line}");
    }
}
