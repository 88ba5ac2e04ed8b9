//! The decomposer's helper threads exist only while a fork is pending:
//! `run_pool` spawns them at its first fork and joins them before it
//! returns, and a search that never forks starts none. A `method=ghd`
//! analysis at `jobs = 1` starts no thread of any name. Threads are
//! counted in `/proc/self/task`, so this file holds the one test of its
//! process — no sibling test's threads are counted.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hyperbench_api::AnalyzeMethod;
use hyperbench_datagen::cspother::pebbling_grid;
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::driver::{check_hd_opts, Outcome};
use hyperbench_decomp::metrics::metrics;
use hyperbench_decomp::parallel::{run_pool, Options, WorkerCtx};
use hyperbench_integration_tests::strategies::hypergraph_from_shape;
use hyperbench_repo::{analyze_with_facts, AnalysisConfig, InstanceFacts};

/// Live threads named `hyperbench-decomp-*` (`comm` keeps 15 bytes).
fn helpers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("hyperbench-deco"))
        .count()
}

/// The ids of this process's live threads, whatever their names.
fn tasks() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| task.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The r×c grid graph: one binary edge per pair of adjacent cells.
fn grid(r: u8, c: u8) -> Vec<Vec<u8>> {
    let cell = |i: u8, j: u8| i * c + j;
    let mut edges = Vec::new();
    for i in 0..r {
        for j in 0..c {
            if j + 1 < c {
                edges.push(vec![cell(i, j), cell(i, j + 1)]);
            }
            if i + 1 < r {
                edges.push(vec![cell(i, j), cell(i + 1, j)]);
            }
        }
    }
    edges
}

/// Waits until [`helpers`] reports `n` and returns the last count. A
/// thread names itself as it starts and leaves `/proc` just after it is
/// joined, so a count can lag by a moment; the 30 s bound only detects
/// a count that never arrives.
fn settle(n: usize) -> usize {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let seen = helpers();
        if seen == n || Instant::now() > give_up {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn helpers_exist_only_while_a_fork_is_pending() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // not Linux: nothing to count
    }
    let inside = run_pool(4, |ctx| {
        let before_fork = helpers();
        let thunks: Vec<_> = (0..8).map(|i| move |_: &WorkerCtx<'_, '_>| i).collect();
        assert_eq!(ctx.fork_join(thunks), (0..8).collect::<Vec<_>>());
        (before_fork, settle(3))
    });
    assert_eq!(inside, (0, 3), "helpers before and after the first fork");
    assert_eq!(settle(0), 0, "helpers outlived run_pool");

    // `Check(HD, hw)` on the 4x4 pebbling grid never forks: a sampler
    // counting helpers while it runs must never see one.
    let h = pebbling_grid("pebbling 4x4", 4, 4);
    let done = AtomicBool::new(false);
    let seen = AtomicUsize::new(0);
    let forks = metrics().forks.get();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                seen.fetch_max(helpers(), Ordering::Relaxed);
            }
        });
        for _ in 0..50 {
            let out = check_hd_opts(&h, 3, &Budget::unlimited(), &Options::with_jobs(4));
            assert!(matches!(out, Outcome::Yes(_)), "{out:?}");
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(metrics().forks.get(), forks, "Check(HD, 3) forked");
    assert_eq!(
        seen.load(Ordering::Relaxed),
        0,
        "a zero-fork check spawned helpers"
    );
    assert_eq!(helpers(), 0);

    // The ghw search behind a `method=ghd` analysis decides each
    // `Check(GHD,k)` on its caller's thread at `jobs = 1`. The threads it
    // would start are unnamed, so this sampler records thread ids.
    let h = hypergraph_from_shape(&grid(4, 4));
    let cfg = AnalysisConfig {
        jobs: 1,
        ..AnalysisConfig::default()
    };
    let done = AtomicBool::new(false);
    let seen = Mutex::new(BTreeSet::new());
    let before = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let now = tasks();
                seen.lock().unwrap().extend(now);
            }
        });
        // The sampler is running once it has recorded itself.
        while seen.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        let before = tasks();
        seen.lock().unwrap().clear();
        for _ in 0..20 {
            // No facts: every analysis runs the whole ghw search.
            let mut facts = InstanceFacts::new();
            let out = analyze_with_facts(&h, &cfg, AnalyzeMethod::Ghd, &mut facts);
            assert_eq!(out.record.hw_exact(), Some(3), "ghw of the 4x4 grid");
        }
        done.store(true, Ordering::Relaxed);
        before
    });
    let seen = seen.into_inner().unwrap();
    let started = seen.difference(&before).count();
    assert_eq!(started, 0, "threads started by 20 serial ghd analyses");
}
