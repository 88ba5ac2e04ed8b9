//! Width-search drivers: `Check(HD,k)` / `Check(GHD,k)` wrappers with
//! uniform outcomes, the iterative hw and ghw searches of §6.2 (Figure 4)
//! and the "run GlobalBIP, LocalBIP and BalSep in parallel and take the
//! first one to terminate" race of §6.4 (Table 4).
//!
//! The ghw search decides each `Check(GHD,k)` with the journal version's
//! hybrid (BalSep's balanced separators down to
//! [`HYBRID_SWITCH_DEPTH`], then detk on each component) on the caller's
//! thread. The hw search asks that same hybrid first (§6.4: ghw ≤ hw, so
//! a certified GHD no at k is an HD no at k) and runs detk only once the
//! hybrid has answered yes or run out of its slice; on the way it pins
//! ghw. The race is kept for the experiments that measure it.

use std::time::{Duration, Instant};

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::Hypergraph;

use crate::balsep::{decompose_balsep_opts, decompose_hybrid_opts, BalsepConfig};
use crate::budget::Budget;
use crate::detk::{decompose_hd_opts, SearchResult};
use crate::globalbip::decompose_globalbip_opts;
use crate::localbip::decompose_localbip_opts;
use crate::parallel::Options;
use crate::tree::Decomposition;

/// Outcome of a `Check(decomposition, k)` run.
#[derive(Debug)]
pub enum Outcome {
    /// A decomposition of width ≤ k (the "yes" certificate).
    Yes(Decomposition),
    /// Certified: no decomposition of width ≤ k exists.
    No,
    /// The search was stopped (deadline, cancellation, or a truncated
    /// subedge enumeration that prevents certification).
    Timeout,
}

impl Outcome {
    /// Whether this is a definitive answer (yes or no).
    pub fn is_decided(&self) -> bool {
        !matches!(self, Outcome::Timeout)
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Yes(_) => "yes",
            Outcome::No => "no",
            Outcome::Timeout => "timeout",
        }
    }
}

impl From<SearchResult> for Outcome {
    fn from(r: SearchResult) -> Outcome {
        match r {
            SearchResult::Found(d) => Outcome::Yes(d),
            SearchResult::NotFound => Outcome::No,
            SearchResult::Stopped => {
                crate::metrics::metrics().cancellations.inc();
                Outcome::Timeout
            }
            SearchResult::NotFoundUncertified => Outcome::Timeout,
        }
    }
}

/// Solves `Check(HD,k)`.
///
/// `k = 1` is answered by the linear-time GYO reduction (α-acyclicity is
/// equivalent to hw = 1), which is how the paper's Figure-4 pipeline can
/// classify thousands of instances "in 0 seconds"; larger `k` runs the
/// backtracking search.
pub fn check_hd(h: &Hypergraph, k: usize, budget: &Budget) -> Outcome {
    check_hd_opts(h, k, budget, &Options::serial())
}

/// [`check_hd`] with an explicit engine configuration: `opts.jobs > 1`
/// runs the backtracking search on the fork–join pool. Same width,
/// same yes/no — parallelism only changes how fast the answer arrives
/// (and possibly which witness tree is returned).
pub fn check_hd_opts(h: &Hypergraph, k: usize, budget: &Budget, opts: &Options) -> Outcome {
    if k == 1 && h.num_edges() > 0 {
        return match hyperbench_core::gyo::join_tree(h) {
            Some(jt) => Outcome::Yes(join_tree_to_decomposition(h, &jt)),
            None => Outcome::No,
        };
    }
    decompose_hd_opts(h, k, budget, opts).into()
}

/// Converts a GYO join tree (edge, parent) list into a width-1
/// decomposition: one node per edge, bag = the edge.
fn join_tree_to_decomposition(
    h: &Hypergraph,
    jt: &[(hyperbench_core::EdgeId, Option<hyperbench_core::EdgeId>)],
) -> Decomposition {
    use crate::tree::CoverAtom;
    if jt.is_empty() {
        return Decomposition::new(hyperbench_core::BitSet::new(), Vec::new());
    }
    let root_edge = jt
        .iter()
        .find(|(_, p)| p.is_none())
        .expect("join tree has a root")
        .0;
    let mut d = Decomposition::new(
        h.edge_set(root_edge).clone(),
        vec![CoverAtom::Edge(root_edge)],
    );
    // node id per edge, built top-down.
    let mut node_of: Vec<Option<crate::tree::NodeId>> = vec![None; jt.len()];
    node_of[root_edge as usize] = Some(d.root());
    let mut placed = 1;
    while placed < jt.len() {
        let mut progressed = false;
        for &(e, p) in jt {
            if node_of[e as usize].is_some() {
                continue;
            }
            let Some(p) = p else { continue };
            if let Some(pn) = node_of[p as usize] {
                let id = d.add_child(pn, h.edge_set(e).clone(), vec![CoverAtom::Edge(e)]);
                node_of[e as usize] = Some(id);
                placed += 1;
                progressed = true;
            }
        }
        assert!(progressed, "join tree contains a parent cycle");
    }
    d
}

/// The three GHD algorithms of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GhdAlgorithm {
    /// Algorithm 1 (§4.2): materialize `f(H,k)` globally.
    GlobalBip,
    /// §4.3: subedges computed per node.
    LocalBip,
    /// Algorithm 2 (§4.4): balanced separators.
    BalSep,
}

impl GhdAlgorithm {
    /// All three, in the paper's presentation order.
    pub const ALL: [GhdAlgorithm; 3] = [
        GhdAlgorithm::GlobalBip,
        GhdAlgorithm::LocalBip,
        GhdAlgorithm::BalSep,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            GhdAlgorithm::GlobalBip => "GlobalBIP",
            GhdAlgorithm::LocalBip => "LocalBIP",
            GhdAlgorithm::BalSep => "BalSep",
        }
    }
}

/// Solves `Check(GHD,k)` with the selected algorithm.
pub fn check_ghd(
    h: &Hypergraph,
    k: usize,
    algo: GhdAlgorithm,
    budget: &Budget,
    cfg: &SubedgeConfig,
) -> Outcome {
    check_ghd_opts(h, k, algo, budget, cfg, &Options::serial())
}

/// [`check_ghd`] with an explicit engine configuration (worker count).
pub fn check_ghd_opts(
    h: &Hypergraph,
    k: usize,
    algo: GhdAlgorithm,
    budget: &Budget,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> Outcome {
    match algo {
        GhdAlgorithm::GlobalBip => decompose_globalbip_opts(h, k, budget, cfg, opts).into(),
        GhdAlgorithm::LocalBip => decompose_localbip_opts(h, k, budget, cfg, opts).into(),
        GhdAlgorithm::BalSep => {
            let bcfg = BalsepConfig {
                subedge_cfg: *cfg,
                ..BalsepConfig::default()
            };
            decompose_balsep_opts(h, k, budget, &bcfg, opts).into()
        }
    }
}

/// The switch depth of the hybrid in the ghw search and the default of
/// `hyperbench decompose --algo hybrid`. Over the checks at k = ghw − 1
/// and k = ghw of the ledger's `analyze` basket (serial, 2 s budget
/// each), depth 1 decides every check, in less CPU in total than the
/// §6.4 race and than the best single contestant per check; depths 2 and
/// 3 time out on pebbling 5×5, pebbling 5×6 and grid 5×5 at k = 3.
pub const HYBRID_SWITCH_DEPTH: usize = 1;

/// Solves `Check(GHD,k)` with the hybrid strategy (§7 future work): the
/// balanced-separator recursion splits the hypergraph down to
/// `switch_depth`, then the detk engine decomposes the small components.
pub fn check_ghd_hybrid(
    h: &Hypergraph,
    k: usize,
    switch_depth: usize,
    budget: &Budget,
    cfg: &SubedgeConfig,
) -> Outcome {
    check_ghd_hybrid_opts(h, k, switch_depth, budget, cfg, &Options::serial())
}

/// [`check_ghd_hybrid`] with an explicit engine configuration.
pub fn check_ghd_hybrid_opts(
    h: &Hypergraph,
    k: usize,
    switch_depth: usize,
    budget: &Budget,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> Outcome {
    let bcfg = BalsepConfig {
        subedge_cfg: *cfg,
        ..BalsepConfig::default()
    };
    decompose_hybrid_opts(h, k, budget, &bcfg, switch_depth, opts).into()
}

/// Result of the first-of-three race (§6.4, Table 4).
#[derive(Debug)]
pub struct RaceResult {
    /// The first definitive outcome (or `Timeout` if none).
    pub outcome: Outcome,
    /// Which algorithm produced it (`None` on timeout).
    pub winner: Option<GhdAlgorithm>,
    /// Wall-clock time of the race.
    pub elapsed: Duration,
}

/// Runs all three GHD algorithms in parallel on `Check(GHD,k)`; the first
/// definitive answer wins and the losers are cancelled. This mirrors the
/// paper's §6.4 setup: "we run our three algorithms in parallel and stop
/// the computation as soon as one terminates."
pub fn race_ghd(h: &Hypergraph, k: usize, timeout: Duration, cfg: &SubedgeConfig) -> RaceResult {
    race_ghd_opts(h, k, timeout, cfg, &Options::serial())
}

/// [`race_ghd`] with an explicit engine configuration. The `jobs` budget
/// is the *per-algorithm* worker count: the race always runs its three
/// contestants concurrently, and each contestant's internal search
/// additionally uses `ceil(jobs / 3)` workers, so the total thread
/// budget stays proportional to the knob.
pub fn race_ghd_opts(
    h: &Hypergraph,
    k: usize,
    timeout: Duration,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> RaceResult {
    let start = Instant::now();
    let (budget, stop) = Budget::with_timeout(timeout).child_scope();
    let per_algo = Options::with_jobs(opts.effective_jobs().div_ceil(GhdAlgorithm::ALL.len()));

    let result = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for algo in GhdAlgorithm::ALL {
            let (budget, stop) = (budget.clone(), stop.clone());
            let handle = scope.spawn(move || {
                let out = check_ghd_opts(h, k, algo, &budget, cfg, &per_algo);
                if out.is_decided() {
                    stop.cancel();
                }
                (algo, out)
            });
            handles.push(handle);
        }
        let mut winner: Option<(GhdAlgorithm, Outcome)> = None;
        for handle in handles {
            let (algo, out) = handle.join().expect("race thread panicked");
            if out.is_decided() && winner.is_none() {
                winner = Some((algo, out));
            }
        }
        winner
    });

    match result {
        Some((algo, outcome)) => RaceResult {
            outcome,
            winner: Some(algo),
            elapsed: start.elapsed(),
        },
        None => RaceResult {
            outcome: Outcome::Timeout,
            winner: None,
            elapsed: start.elapsed(),
        },
    }
}

/// Per-`k` record of an iterative width search (one bar of Figure 4).
#[derive(Debug)]
pub struct KStep {
    /// The `k` that was checked.
    pub k: usize,
    /// The outcome of `Check(HD,k)`.
    pub outcome: Outcome,
    /// Time spent on this check.
    pub elapsed: Duration,
}

/// Result of the iterative hw computation.
#[derive(Debug)]
pub struct HwResult {
    /// One entry per `k` tried, in increasing order.
    pub steps: Vec<KStep>,
    /// Smallest `k` with a yes-answer, if any.
    pub upper: Option<usize>,
    /// Largest `k` with a certified no-answer plus one, i.e. a lower bound
    /// on hw (1 when nothing was certified).
    pub lower: usize,
    /// hw search only: a certified lower bound on ghw, 1 + the last `k`
    /// of the run of `Check(GHD,k)` no's the search proved from its start
    /// (its start when it proved none; 1 for the other searches).
    pub ghw_lower: usize,
    /// hw search only: a GHD of width `ghw_lower`, when the hybrid
    /// answered yes there and so pinned ghw.
    pub ghw_witness: Option<Decomposition>,
}

impl HwResult {
    /// The exact hypertree width, when the search pinned it down
    /// (upper bound met by certified no at `upper - 1`).
    pub fn exact(&self) -> Option<usize> {
        match self.upper {
            Some(u) if self.lower == u => Some(u),
            _ => None,
        }
    }
}

/// Iteratively solves `Check(HD,k)` for `k = 1, 2, …` (the procedure behind
/// Figure 4): stops at the first yes-answer or at `k_max`. Each check gets
/// its own timeout. A timeout at some `k` does not stop the progression —
/// like the paper, the search continues with larger `k` (hw may still be
/// bounded from above even when a smaller `k` timed out).
pub fn hypertree_width(h: &Hypergraph, k_max: usize, per_check: Duration) -> HwResult {
    hypertree_width_opts(h, k_max, per_check, &Options::serial())
}

/// [`hypertree_width`] with an explicit engine configuration: every
/// `Check(HD,k)` step runs on `opts.jobs` workers. The reported bounds
/// are identical to a serial run (the per-`k` yes/no answers are
/// determined by the instance, not the schedule).
pub fn hypertree_width_opts(
    h: &Hypergraph,
    k_max: usize,
    per_check: Duration,
    opts: &Options,
) -> HwResult {
    hypertree_width_from_opts(h, 1, k_max, per_check, opts)
}

/// The share of `per_check` the hw search gives the hybrid at each `k`:
/// `per_check / HD_HYBRID_SLICE`. Chosen on the scale-0.05 corpus (seed
/// 1, `k_max` 5, 1 s per check, two instances at a time), where every
/// divisor tried left each decided answer as it was. The steps' total
/// time was 147.6 s with detk alone, 111.1 s at 1/8, 108.3 s at 1/4 and
/// 115.8 s at 1/2; timeouts fell from 125 to 97, 85 and 74. A quarter
/// costs least: a shorter slice gives up hybrid no's that detk then
/// spends a full budget on, a longer one burns more on the hybrid's
/// timeouts. An undecided step costs at most `per_check · (1 + 1/4)`.
pub const HD_HYBRID_SLICE: u32 = 4;

/// [`hypertree_width_opts`] starting at `k = from`, for a caller that has
/// already proved ghw ≥ `from` — e.g. by knowing ghw — so every
/// `Check(HD,k)` with `k < from` is no (ghw ≤ hw). The reported lower
/// bounds start at `from`.
///
/// `k = 1` is GYO. At each `k ≥ 2` the search first asks the hybrid's
/// `Check(GHD,k)` for a slice of `per_check` (see [`HD_HYBRID_SLICE`]),
/// until the hybrid first answers yes or times out:
///
/// * a hybrid no is that `k`'s certified HD no, and no detk runs;
/// * on a hybrid yes or timeout, detk decides `Check(HD,k)` under the
///   full `per_check`, so no answer detk alone decides becomes a
///   timeout.
///
/// A step's `elapsed` includes the hybrid's time at that `k`, and its
/// outcome is the HD answer. A hybrid yes after certified no's below
/// pins ghw, and the result carries that GHD in `ghw_witness`. A search
/// from `from > 1` asks the hybrid nothing: its caller already holds the
/// ghw bound the hybrid would re-prove at `from`.
pub fn hypertree_width_from_opts(
    h: &Hypergraph,
    from: usize,
    k_max: usize,
    per_check: Duration,
    opts: &Options,
) -> HwResult {
    let cfg = SubedgeConfig::default();
    let mut hybrid = from <= 1;
    let mut ghw_lower = from.max(1);
    let mut ghw_witness = None;
    let mut result = width_search(from, k_max, |k| {
        if hybrid && k >= 2 {
            let slice = Budget::with_timeout(per_check / HD_HYBRID_SLICE);
            match check_ghd_hybrid_opts(h, k, HYBRID_SWITCH_DEPTH, &slice, &cfg, opts) {
                Outcome::No => {
                    ghw_lower = k + 1;
                    return Outcome::No;
                }
                Outcome::Yes(d) => ghw_witness = Some(d),
                Outcome::Timeout => {}
            }
            hybrid = false;
        }
        let outcome = check_hd_opts(h, k, &Budget::with_timeout(per_check), opts);
        if k == 1 && matches!(outcome, Outcome::No) {
            // Cyclic: ghw = 1 iff hw = 1.
            ghw_lower = 2;
        }
        outcome
    });
    result.ghw_lower = ghw_lower;
    result.ghw_witness = ghw_witness;
    result
}

/// The shared iterative width search: runs `check(k)` for `k = from,
/// from + 1, …`, tracking the certified lower bound (`from` + the longest
/// contiguous no-prefix) and stopping at the first yes-answer or at
/// `k_max`. Every `k < from` must already be certified no by the caller;
/// `from = 1` claims nothing.
pub fn width_search(
    from: usize,
    k_max: usize,
    mut check: impl FnMut(usize) -> Outcome,
) -> HwResult {
    let from = from.max(1);
    let mut steps = Vec::new();
    let mut lower = from;
    let mut upper = None;
    let mut contiguous_no = true;
    for k in from..=k_max {
        let start = Instant::now();
        let outcome = check(k);
        let elapsed = start.elapsed();
        let done = matches!(outcome, Outcome::Yes(_));
        if contiguous_no {
            match outcome {
                Outcome::No => lower = k + 1,
                _ => contiguous_no = false,
            }
        }
        steps.push(KStep {
            k,
            outcome,
            elapsed,
        });
        if done {
            upper = Some(k);
            crate::metrics::metrics().width_found.observe(k as u64);
            break;
        }
    }
    HwResult {
        steps,
        upper,
        lower,
        ghw_lower: 1,
        ghw_witness: None,
    }
}

/// Iteratively solves `Check(GHD,k)` for `k = 1, 2, …` — the ghw
/// analogue of [`hypertree_width`], backing the server's `method=ghd`
/// analyses. `k = 1` takes the linear-time GYO fast path (ghw = 1 iff
/// hw = 1 iff α-acyclic); larger `k` runs the hybrid at
/// [`HYBRID_SWITCH_DEPTH`] on the caller's thread.
pub fn generalized_hypertree_width(
    h: &Hypergraph,
    k_max: usize,
    per_check: Duration,
    cfg: &SubedgeConfig,
) -> HwResult {
    generalized_hypertree_width_opts(h, k_max, per_check, cfg, &Options::serial())
}

/// [`generalized_hypertree_width`] with an explicit engine
/// configuration: each hybrid check forks onto `opts.jobs` workers when
/// `jobs > 1`; at `jobs = 1` the search starts no thread.
pub fn generalized_hypertree_width_opts(
    h: &Hypergraph,
    k_max: usize,
    per_check: Duration,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> HwResult {
    generalized_hypertree_width_from_opts(h, 1, k_max, per_check, cfg, opts)
}

/// [`generalized_hypertree_width_opts`] starting at `k = from`, for a
/// caller that has already proved ghw ≥ `from`; the reported lower bound
/// starts there.
pub fn generalized_hypertree_width_from_opts(
    h: &Hypergraph,
    from: usize,
    k_max: usize,
    per_check: Duration,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> HwResult {
    width_search(from, k_max, |k| {
        let budget = Budget::with_timeout(per_check);
        if k == 1 {
            check_hd(h, 1, &budget)
        } else {
            check_ghd_hybrid_opts(h, k, HYBRID_SWITCH_DEPTH, &budget, cfg, opts)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    #[test]
    fn hw_of_triangle_is_two() {
        let r = hypertree_width(&triangle(), 5, Duration::from_secs(10));
        assert_eq!(r.upper, Some(2));
        assert_eq!(r.lower, 2);
        assert_eq!(r.exact(), Some(2));
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.steps[0].outcome.label(), "no");
        assert_eq!(r.steps[1].outcome.label(), "yes");
    }

    #[test]
    fn hw_of_acyclic_is_one() {
        let h = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let r = hypertree_width(&h, 3, Duration::from_secs(10));
        assert_eq!(r.exact(), Some(1));
    }

    #[test]
    fn kmax_respected() {
        let r = hypertree_width(&triangle(), 1, Duration::from_secs(10));
        assert_eq!(r.upper, None);
        assert_eq!(r.lower, 2);
        assert_eq!(r.exact(), None);
    }

    #[test]
    fn all_ghd_algorithms_agree_on_triangle() {
        let h = triangle();
        let cfg = SubedgeConfig::default();
        for algo in GhdAlgorithm::ALL {
            let no = check_ghd(&h, 1, algo, &Budget::unlimited(), &cfg);
            assert_eq!(no.label(), "no", "{}", algo.name());
            let yes = check_ghd(&h, 2, algo, &Budget::unlimited(), &cfg);
            assert_eq!(yes.label(), "yes", "{}", algo.name());
        }
    }

    #[test]
    fn race_returns_definitive_answer() {
        let h = triangle();
        let r = race_ghd(&h, 2, Duration::from_secs(20), &SubedgeConfig::default());
        assert_eq!(r.outcome.label(), "yes");
        assert!(r.winner.is_some());
    }

    #[test]
    fn race_no_answer() {
        let h = triangle();
        let r = race_ghd(&h, 1, Duration::from_secs(20), &SubedgeConfig::default());
        assert_eq!(r.outcome.label(), "no");
    }

    #[test]
    fn width_search_from_a_certified_start() {
        // Stub notion with width 4: no below, yes from 4 on. Starting at
        // 3 checks only 3 and 4, and the lower bound starts at 3.
        let mut asked = Vec::new();
        let r = width_search(3, 8, |k| {
            asked.push(k);
            if k >= 4 {
                Outcome::Yes(triangle_hd())
            } else {
                Outcome::No
            }
        });
        assert_eq!(asked, vec![3, 4]);
        assert_eq!((r.lower, r.upper, r.exact()), (4, Some(4), Some(4)));
        // A timeout at the start leaves the caller's bound standing.
        let r = width_search(3, 8, |k| match k {
            3 => Outcome::Timeout,
            _ => Outcome::Yes(triangle_hd()),
        });
        assert_eq!((r.lower, r.upper), (3, Some(4)));
        // A start above k_max checks nothing and claims only the start.
        let r = width_search(5, 4, |_| unreachable!("no k in 5..=4"));
        assert!(r.steps.is_empty());
        assert_eq!((r.lower, r.upper), (5, None));
        // `from = 0` is the unconditioned search.
        let r = width_search(0, 2, |k| {
            assert!(k >= 1);
            Outcome::No
        });
        assert_eq!((r.lower, r.upper, r.steps.len()), (3, None, 2));
    }

    /// Any decomposition: the stubbed searches only carry it.
    fn triangle_hd() -> Decomposition {
        match check_hd(&triangle(), 2, &Budget::unlimited()) {
            Outcome::Yes(d) => d,
            other => panic!("triangle has hw 2, got {other:?}"),
        }
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(Outcome::No.label(), "no");
        assert_eq!(Outcome::Timeout.label(), "timeout");
        assert!(!Outcome::Timeout.is_decided());
    }

    #[test]
    fn gyo_fast_path_produces_valid_width1_hds() {
        use crate::validate::validate_hd;
        // Connected star, a branching tree, and a disconnected forest.
        let cases = [
            hypergraph_from_edges(&[
                ("e0", &["c", "x"]),
                ("e1", &["c", "y"]),
                ("e2", &["c", "z"]),
            ]),
            hypergraph_from_edges(&[
                ("e0", &["a", "b"]),
                ("e1", &["b", "c"]),
                ("e2", &["b", "d"]),
                ("e3", &["d", "e"]),
            ]),
            hypergraph_from_edges(&[("e0", &["a", "b"]), ("e1", &["x", "y"])]),
        ];
        for h in &cases {
            match check_hd(h, 1, &Budget::unlimited()) {
                Outcome::Yes(d) => {
                    validate_hd(h, &d).unwrap();
                    assert_eq!(d.width(), 1);
                    assert_eq!(d.len(), h.num_edges());
                }
                other => panic!("expected width-1 HD, got {other:?}"),
            }
        }
    }

    #[test]
    fn ghw_search_matches_known_widths() {
        let cfg = SubedgeConfig::default();
        let r = generalized_hypertree_width(&triangle(), 4, Duration::from_secs(20), &cfg);
        assert_eq!(r.exact(), Some(2));
        // The k = 2 step carries the witness decomposition.
        match &r.steps.last().unwrap().outcome {
            Outcome::Yes(d) => {
                crate::validate::validate_ghd(&triangle(), d).unwrap();
                assert!(d.width() <= 2);
            }
            other => panic!("expected a GHD witness, got {other:?}"),
        }
        let acyclic = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let r = generalized_hypertree_width(&acyclic, 3, Duration::from_secs(20), &cfg);
        assert_eq!(r.exact(), Some(1));
    }

    #[test]
    fn gap_closing_on_triangle() {
        // The triangle's k = 1 is GYO's certified no, k = 2 the hybrid's
        // yes: detk then decides Check(HD,2), and the GHD pins ghw = 2.
        let h = triangle();
        let r = hypertree_width(&h, 5, Duration::from_secs(10));
        assert_eq!(r.exact(), Some(2));
        assert_eq!(r.ghw_lower, 2);
        let ghd = r.ghw_witness.as_ref().expect("the hybrid's yes at 2");
        crate::validate::validate_ghd(&h, ghd).unwrap();
        assert_eq!(ghd.width(), 2);
        // K5 (hw = ghw = 3): the hybrid's no at 2 is the HD no, and
        // its yes at 3 pins ghw.
        let mut b = hyperbench_core::HypergraphBuilder::named("K5");
        for i in 0..5 {
            for j in i + 1..5 {
                b.add_edge(&format!("e{i}{j}"), &[format!("v{i}"), format!("v{j}")]);
            }
        }
        let k5 = b.build();
        let r = hypertree_width(&k5, 5, Duration::from_secs(10));
        assert_eq!(r.exact(), Some(3));
        assert_eq!(r.steps[1].outcome.label(), "no");
        assert_eq!(r.ghw_lower, 3);
        crate::validate::validate_ghd(&k5, r.ghw_witness.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn gap_closing_respects_yes_answers() {
        let h = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let r = hypertree_width(&h, 3, Duration::from_secs(10));
        assert_eq!(r.exact(), Some(1));
        assert!(r.steps.iter().all(|s| s.outcome.label() != "no"));
        assert_eq!((r.ghw_lower, r.ghw_witness.is_none()), (1, true));
        // Searched from a certified start, the hybrid is not asked: the
        // start is the caller's ghw bound, and nothing pins it again.
        let r = hypertree_width_from_opts(
            &triangle(),
            2,
            5,
            Duration::from_secs(10),
            &Options::serial(),
        );
        assert_eq!((r.exact(), r.ghw_lower), (Some(2), 2));
        assert!(r.ghw_witness.is_none());
    }

    #[test]
    fn gyo_fast_path_agrees_with_search_on_cyclic() {
        let h = triangle();
        assert_eq!(check_hd(&h, 1, &Budget::unlimited()).label(), "no");
        // The backtracking search agrees.
        assert!(matches!(
            crate::detk::decompose_hd(&h, 1, &Budget::unlimited()),
            crate::detk::SearchResult::NotFound
        ));
    }
}
