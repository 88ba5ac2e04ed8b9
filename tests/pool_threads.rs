//! The decomposer's helper threads exist only while a fork is pending:
//! `run_pool` spawns them at its first fork and joins them before it
//! returns, and a search that never forks starts none. Threads are
//! counted by name in `/proc/self/task`, so this file holds the one test
//! of its process — no sibling test's pool is counted.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hyperbench_datagen::cspother::pebbling_grid;
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::driver::{check_hd_opts, Outcome};
use hyperbench_decomp::metrics::metrics;
use hyperbench_decomp::parallel::{run_pool, Options, WorkerCtx};

/// Live threads named `hyperbench-decomp-*` (`comm` keeps 15 bytes).
fn helpers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("hyperbench-deco"))
        .count()
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
}
