//! Parallel/serial equivalence of the decomposition engine, property
//! based: on random small hypergraphs the work-stealing parallel search
//! must report exactly the widths the serial search reports, and every
//! witness must pass machine validation. Plus cancellation: a tight
//! budget stops all workers promptly and leaks no threads (the pool is
//! scoped — workers join before `decompose` returns).

use std::time::{Duration, Instant};

use hyperbench_core::Hypergraph;
use hyperbench_decomp::balsep::{decompose_balsep, decompose_balsep_opts, BalsepConfig};
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::detk::{decompose_hd, decompose_hd_opts, SearchResult};
use hyperbench_decomp::parallel::Options;
use hyperbench_decomp::validate::{validate_ghd_with_width, validate_hd};
use hyperbench_integration_tests::strategies::hypergraph_from_shape;
use proptest::prelude::*;

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    // Up to 8 edges over up to 8 vertices, arity ≤ 4 — large enough for
    // real component splits, small enough for exhaustive searches.
    prop::collection::vec(prop::collection::vec(0u8..8, 1..=4), 1..=8)
        .prop_map(|shape| hypergraph_from_shape(&shape))
}

fn answer(r: &SearchResult) -> Option<bool> {
    match r {
        SearchResult::Found(_) => Some(true),
        SearchResult::NotFound => Some(false),
        _ => None,
    }
}

/// `Check(HD,k)`: the parallel engine must answer exactly like the
/// serial engine for every k, and parallel witnesses must validate.
fn assert_hd_equivalence(h: &Hypergraph) {
    let budget = Budget::unlimited();
    let par = Options::with_jobs(3);
    for k in 1..=3usize {
        let s = decompose_hd(h, k, &budget);
        let p = decompose_hd_opts(h, k, &budget, &par);
        assert_eq!(
            answer(&s),
            answer(&p),
            "serial/parallel hd disagree at k={k} on\n{h:?}"
        );
        if let SearchResult::Found(d) = &p {
            validate_hd(h, d).unwrap();
            assert!(d.width() <= k, "width exceeds k={k}");
        }
    }
}

/// `Check(GHD,k)` via BalSep: same property, exercising the speculative
/// root separator scan and the component subtasks.
fn assert_balsep_equivalence(h: &Hypergraph) {
    let budget = Budget::unlimited();
    let cfg = BalsepConfig::default();
    let par = Options::with_jobs(3);
    for k in 1..=3usize {
        let s = decompose_balsep(h, k, &budget, &cfg);
        let p = decompose_balsep_opts(h, k, &budget, &cfg, &par);
        assert_eq!(
            answer(&s),
            answer(&p),
            "serial/parallel balsep disagree at k={k} on\n{h:?}"
        );
        if let SearchResult::Found(d) = &p {
            validate_ghd_with_width(h, d, k).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_hd_matches_serial(h in small_hypergraph()) {
        assert_hd_equivalence(&h);
    }

    #[test]
    fn parallel_balsep_matches_serial(h in small_hypergraph()) {
        assert_balsep_equivalence(&h);
    }
}

/// Current thread count of this process (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

/// A clique-ish instance that cannot finish within a few milliseconds.
fn hard_instance() -> Hypergraph {
    let mut b = hyperbench_core::HypergraphBuilder::new();
    for i in 0..12 {
        for j in (i + 1)..12 {
            b.add_edge(&format!("e{i}_{j}"), &[format!("v{i}"), format!("v{j}")]);
        }
    }
    b.build()
}

#[test]
fn tight_budget_stops_all_workers_promptly() {
    let h = hard_instance();
    let before = thread_count();
    for round in 0..3 {
        let budget = Budget::with_timeout(Duration::from_millis(2));
        let start = Instant::now();
        let r = decompose_hd_opts(&h, 3, &budget, &Options::with_jobs(4));
        assert!(
            matches!(r, SearchResult::Stopped),
            "round {round}: expected Stopped, got {r:?}"
        );

        let budget = Budget::with_timeout(Duration::from_millis(2));
        let r = decompose_balsep_opts(
            &h,
            3,
            &budget,
            &BalsepConfig::default(),
            &Options::with_jobs(4),
        );
        assert!(matches!(r, SearchResult::Stopped), "round {round}");
        // A hang detector, not a perf claim: 5 s against two 2 ms budgets
        // (1 250x) — only workers that stopped polling the budget trip it.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "round {round}: workers did not stop promptly"
        );
    }
    // The pool is scoped: every worker joined before `decompose`
    // returned, so repeated stopped searches must not accumulate
    // threads. A leak would strand 3 extra workers per search — 18
    // across the six searches above; the small slack tolerates sibling
    // tests of this binary starting threads concurrently.
    if let (Some(b), Some(a)) = (before, thread_count()) {
        assert!(
            a <= b + 4,
            "thread leak: {b} threads before, {a} after stopped parallel searches"
        );
    }
}

/// The knob end of the determinism guarantee: `jobs = 0` (all cores)
/// and an over-subscribed worker count still answer like serial.
#[test]
fn oversubscribed_and_auto_jobs_agree_with_serial() {
    let h = hypergraph_from_shape(&[
        vec![0, 1],
        vec![1, 2],
        vec![2, 3],
        vec![3, 4],
        vec![4, 0],
        vec![0, 2],
        vec![5, 6],
    ]);
    let budget = Budget::unlimited();
    for opts in [Options::with_jobs(0), Options::with_jobs(8)] {
        for k in 1..=3usize {
            let s = decompose_hd(&h, k, &budget);
            let p = decompose_hd_opts(&h, k, &budget, &opts);
            assert_eq!(
                answer(&s),
                answer(&p),
                "jobs={:?} disagrees at k={k}",
                opts.jobs
            );
            if let SearchResult::Found(d) = p {
                validate_hd(&h, &d).unwrap();
            }
        }
    }
}
