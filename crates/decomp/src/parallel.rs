//! The parallel substrate of the decomposition engine: a scoped
//! fork–join pool, sharded concurrent memo maps, and the [`Options`]
//! knob that selects the degree of parallelism.
//!
//! Zero external dependencies, and plain locks: the pool is one
//! `Mutex<VecDeque>` of pending tasks plus one `Condvar` per
//! [`run_pool`]. A fork pushes its subtasks at the back. The forking
//! thread, while it waits for them, pops at the back (newest first, for
//! depth-first locality); helper threads take from the front (oldest
//! first, where the biggest subtrees sit). Idle helpers park on the
//! condvar, and a push wakes them only when one is parked. Helpers are
//! spawned at the pool's first fork, so a search that never forks
//! starts no thread. One lock is enough for this traffic: on the
//! benchmark's `analyze` basket a `Check(HD, k)` forks at most 765
//! times, and at `jobs = 2` at most 65 of those tasks run on a thread
//! other than their forker's.
//!
//! Every task runs under `catch_unwind`, and its panic is resumed on the
//! thread that forked it once its siblings are done, so a panic anywhere
//! in a parallel search unwinds out of [`run_pool`] as it would out of a
//! serial one. A drop guard stops the helpers when the root returns or
//! unwinds.
//!
//! The memo maps are striped `Mutex<HashMap>` shards addressed by a
//! 64-bit FNV-1a fingerprint of the subproblem.
//!
//! The paper's tool parallelizes exactly this search ("the
//! implementation … makes use of parallelism for the check if ghw ≤ k",
//! §6.4): independent components below a separator are solved as
//! forked subtasks, and one shared failure memo lets any worker's
//! dead end prune every other worker's search.
//!
//! ## Determinism
//!
//! `Check(·, k)` is a predicate: whichever order workers explore the
//! separator space, an exhaustive search returns *yes* iff a width-≤ k
//! decomposition exists. Parallel runs therefore report the same width
//! as serial runs and a witness that passes `decomp::validate`; only the
//! particular witness tree may differ between runs.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

use hyperbench_core::hash::Fnv1a64;

/// Engine options threaded from the CLI / server / harness down to the
/// search: how many workers one `decompose` call may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Worker threads for one decomposition search. `1` = serial (the
    /// default, and byte-for-byte the historical code path); `0` = all
    /// available cores; `n > 1` = exactly `n` workers.
    pub jobs: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options::serial()
    }
}

impl Options {
    /// The serial engine: no pool, no forks, no extra threads.
    pub const fn serial() -> Options {
        Options { jobs: 1 }
    }

    /// An engine with `jobs` workers (`0` = all cores).
    pub fn with_jobs(jobs: usize) -> Options {
        Options { jobs }
    }

    /// Resolves the knob to a concrete worker count (`0` → core count).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// Whether a pool should be spun up at all.
    pub fn is_parallel(&self) -> bool {
        self.effective_jobs() > 1
    }
}

/// Fork separator components into subtasks only when the split carries
/// at least this many edges in total; smaller splits recurse inline.
/// Forking costs a few heap allocations plus (when a helper runs a
/// sibling) a wake-up round-trip, so fine-grained splits are cheaper to
/// run in place — the speedup comes from the big early splits and the
/// speculative root separator scan.
pub(crate) const FORK_MIN_EDGES: usize = 8;

/// Fork components only this many recursion levels deep. Splits shrink
/// geometrically, so the first levels carry almost all the forkable
/// work; deeper splits are so frequent and so small that the per-fork
/// bookkeeping measurably outweighs the parallelism they expose.
pub(crate) const FORK_MAX_DEPTH: usize = 2;

/// A forked subtask. Receives the context of whichever thread runs it,
/// so the forks it makes in turn land in the same queue.
type Task<'env> = Box<dyn FnOnce(&WorkerCtx<'_, 'env>) + Send + 'env>;

/// What the pool's one lock guards.
struct State<'env> {
    /// Pending tasks. Forks push at the back; a forker helping out pops
    /// at the back (newest first), helpers take from the front (oldest
    /// first).
    queue: VecDeque<Task<'env>>,
    /// Threads blocked on [`Shared::wake`]: idle helpers, and forkers
    /// waiting for a sibling that another thread runs.
    parked: usize,
    /// Set when the root returns or unwinds; helpers exit on it.
    shutdown: bool,
}

struct Shared<'env> {
    state: Mutex<State<'env>>,
    /// Signalled on a push, when a task finishes on a thread other than
    /// its forker's, and at shutdown.
    wake: Condvar,
    workers: usize,
}

impl<'env> Shared<'env> {
    /// Locks the pool. No task runs under this lock, so a panicking
    /// task cannot poison it.
    fn lock(&self) -> MutexGuard<'_, State<'env>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the next signal on [`Shared::wake`].
    fn park<'a>(&self, mut st: MutexGuard<'a, State<'env>>) -> MutexGuard<'a, State<'env>> {
        st.parked += 1;
        st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        st.parked -= 1;
        st
    }

    /// Wakes every parked thread, if there is one.
    fn wake_parked(&self, st: &State<'env>) {
        if st.parked > 0 {
            self.wake.notify_all();
        }
    }
}

/// Stops the helpers when the root returns — or unwinds, so a panicking
/// search never leaves `std::thread::scope` joining parked threads.
struct ShutdownOnDrop<'a, 'env>(&'a Shared<'env>);

impl Drop for ShutdownOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.lock().shutdown = true;
        self.0.wake.notify_all();
    }
}

/// Handle to the pool held by one participating thread (the caller of
/// [`run_pool`] is worker 0; helpers are workers 1..jobs).
pub struct WorkerCtx<'p, 'env> {
    shared: &'p Shared<'env>,
    index: usize,
    /// Spawns the helpers at the root's first fork and does nothing
    /// after; `None` on the helpers themselves.
    spawn_helpers: Option<&'p (dyn Fn() + Sync + 'p)>,
}

/// The results of one fork: `slots[i]` receives thunk `i + 1`'s value or
/// panic (thunk 0 runs inline on the forker).
struct Join<T> {
    slots: Vec<Mutex<Option<std::thread::Result<T>>>>,
    remaining: AtomicUsize,
}

impl<'p, 'env> WorkerCtx<'p, 'env> {
    /// Runs every thunk — thunk 0 inline, the rest as queued tasks — and
    /// returns their results in input order. While waiting for siblings,
    /// the forking thread *helps*: it runs queued tasks (its own or
    /// anyone's), so a saturated pool never deadlocks. A thunk's panic is
    /// resumed here, after every sibling has finished.
    pub fn fork_join<T, F>(&self, mut thunks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce(&WorkerCtx<'_, 'env>) -> T + Send + 'env,
    {
        if thunks.is_empty() {
            return Vec::new();
        }
        if thunks.len() == 1 {
            let f = thunks.pop().expect("one thunk");
            return vec![f(self)];
        }
        crate::metrics::metrics().forks.inc();
        let rest = thunks.split_off(1);
        let first = thunks.pop().expect("first thunk");
        let join = Arc::new(Join {
            slots: rest.iter().map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(rest.len()),
        });
        {
            let mut st = self.shared.lock();
            let forker = self.index;
            for (i, f) in rest.into_iter().enumerate() {
                let join = Arc::clone(&join);
                st.queue
                    .push_back(Box::new(move |ctx: &WorkerCtx<'_, 'env>| {
                        let r = catch_unwind(AssertUnwindSafe(|| f(ctx)));
                        *join.slots[i].lock().expect("fork slot") = Some(r);
                        join.remaining.fetch_sub(1, Ordering::Release);
                        if ctx.index != forker {
                            crate::metrics::metrics().steals.inc();
                            ctx.shared.wake_parked(&ctx.shared.lock());
                        }
                    }));
            }
            self.shared.wake_parked(&st);
        }
        if let Some(spawn) = self.spawn_helpers {
            spawn();
        }
        let first = catch_unwind(AssertUnwindSafe(|| first(self)));
        self.help_until_joined(&join.remaining);
        let rest = join.slots.iter().map(|slot| {
            slot.lock()
                .expect("fork slot")
                .take()
                .expect("sibling completed")
        });
        std::iter::once(first)
            .chain(rest)
            .map(|r| r.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }

    /// Runs queued tasks, newest first, until `remaining` reaches zero;
    /// parks while the queue is empty and a sibling still runs elsewhere.
    fn help_until_joined(&self, remaining: &AtomicUsize) {
        let mut st = self.shared.lock();
        while remaining.load(Ordering::Acquire) > 0 {
            match st.queue.pop_back() {
                Some(task) => {
                    drop(st);
                    crate::metrics::metrics().helping_joins.inc();
                    task(self);
                    st = self.shared.lock();
                }
                None => st = self.shared.park(st),
            }
        }
    }

    /// Number of workers in the pool (≥ 2 whenever a pool exists).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }
}

fn helper_loop(shared: &Shared<'_>, index: usize) {
    let ctx = WorkerCtx {
        shared,
        index,
        spawn_helpers: None,
    };
    let mut st = shared.lock();
    while !st.shutdown {
        match st.queue.pop_front() {
            Some(task) => {
                drop(st);
                task(&ctx);
                st = shared.lock();
            }
            None => st = shared.park(st),
        }
    }
}

/// Runs `root` on the calling thread with up to `jobs - 1` scoped helper
/// threads running the subtasks it forks. The helpers are spawned at the
/// first fork, so a search that never forks starts no thread, and all of
/// them join before this returns — the pool cannot leak threads past the
/// search that used it. With `jobs <= 1` forks run on the caller.
pub fn run_pool<'env, R>(jobs: usize, root: impl FnOnce(&WorkerCtx<'_, 'env>) -> R) -> R {
    let shared = Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            parked: 0,
            shutdown: false,
        }),
        wake: Condvar::new(),
        workers: jobs.max(1),
    };
    std::thread::scope(|s| {
        let spawned = Once::new();
        let spawn_helpers = || {
            spawned.call_once(|| {
                for i in 1..shared.workers {
                    let shared = &shared;
                    std::thread::Builder::new()
                        .name(format!("hyperbench-decomp-{i}"))
                        .spawn_scoped(s, move || helper_loop(shared, i))
                        .expect("spawn decomposition helper");
                }
            })
        };
        let ctx = WorkerCtx {
            shared: &shared,
            index: 0,
            spawn_helpers: Some(&spawn_helpers),
        };
        let _shutdown = ShutdownOnDrop(&shared);
        root(&ctx)
    })
}

/// Fingerprints a slice of 32-bit ids (a component, a connector).
pub fn fingerprint_ids(ids: &[u32]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv1a64::default();
    ids.hash(&mut h);
    h.finish()
}

const SHARDS: usize = 64; // power of two; the shard mask depends on it

/// A sharded concurrent memo map: `SHARDS` stripes of
/// `Mutex<HashMap<fingerprint, bucket>>`, shared by every worker of a
/// search so one worker's result immediately prunes the others.
///
/// Lookups pass the precomputed fingerprint plus a key-equality closure
/// evaluated against the stored keys — the caller never materializes an
/// owned key just to probe (the historical per-call `Box<[EdgeId]>`
/// re-boxing). Owned keys are built exactly once, on insert.
/// One fingerprint's bucket: the (key, value) entries whose fingerprint
/// collided there. Always tiny — the closure-based lookup disambiguates.
type Bucket<K, V> = Vec<(K, V)>;

/// One lock stripe of the memo: fingerprint → bucket.
type Shard<K, V> = Mutex<HashMap<u64, Bucket<K, V>>>;

pub struct ShardedMemo<K, V> {
    shards: Box<[Shard<K, V>]>,
}

impl<K, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        ShardedMemo::new()
    }
}

impl<K, V: Clone> ShardedMemo<K, V> {
    /// An empty memo.
    pub fn new() -> ShardedMemo<K, V> {
        ShardedMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<HashMap<u64, Vec<(K, V)>>> {
        // Mix the high bits in: fingerprints are already well-spread, but
        // the mask only looks at the low bits.
        &self.shards[((fp ^ (fp >> 32)) as usize) & (SHARDS - 1)]
    }

    /// Looks up the entry whose stored key satisfies `matches` under the
    /// given fingerprint. Collisions are resolved by the closure, never
    /// by the fingerprint alone.
    pub fn get(&self, fp: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        let shard = self.shard(fp).lock().expect("memo shard");
        let bucket = shard.get(&fp)?;
        let hit = bucket
            .iter()
            .find(|(k, _)| matches(k))
            .map(|(_, v)| v.clone());
        if hit.is_some() {
            crate::metrics::metrics().memo_hits.inc();
        }
        hit
    }

    /// Inserts `value` under `key`, unless an equal key is already
    /// present — concurrent workers solving the same subproblem insert
    /// once. The owned key is built by the caller exactly here, on the
    /// insert path; lookups never materialize one.
    pub fn insert(&self, fp: u64, key: K, value: V)
    where
        K: PartialEq,
    {
        let mut shard = self.shard(fp).lock().expect("memo shard");
        let bucket = shard.entry(fp).or_default();
        if bucket.iter().any(|(k, _)| *k == key) {
            return;
        }
        bucket.push((key, value));
    }

    /// Total number of memoized entries (diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("memo shard")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn options_resolution() {
        assert_eq!(Options::serial().effective_jobs(), 1);
        assert!(!Options::serial().is_parallel());
        assert_eq!(Options::with_jobs(3).effective_jobs(), 3);
        assert!(Options::with_jobs(2).is_parallel());
        assert!(Options::with_jobs(0).effective_jobs() >= 1);
        assert_eq!(Options::default(), Options::serial());
    }

    #[test]
    fn fork_join_preserves_order() {
        for jobs in [1usize, 2, 4] {
            let out = run_pool(jobs, |ctx| {
                let thunks: Vec<_> = (0..16)
                    .map(|i| move |_: &WorkerCtx<'_, '_>| i * 10)
                    .collect();
                ctx.fork_join(thunks)
            });
            assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_forks_sum_correctly() {
        // A fork tree three levels deep: 4 × 4 × 4 leaves summing 0..64.
        fn level(ctx: &WorkerCtx<'_, '_>, base: usize, depth: usize) -> usize {
            if depth == 0 {
                return base;
            }
            let thunks: Vec<_> = (0..4)
                .map(|i| move |ctx: &WorkerCtx<'_, '_>| level(ctx, base * 4 + i, depth - 1))
                .collect();
            ctx.fork_join(thunks).into_iter().sum()
        }
        for jobs in [1usize, 3, 4] {
            let total = run_pool(jobs, |ctx| level(ctx, 0, 3));
            assert_eq!(total, (0..64).sum::<usize>(), "jobs={jobs}");
        }
    }

    #[test]
    fn work_is_actually_stolen() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        // Sleepy leaf tasks force the owner to overflow onto thieves.
        let ids = run_pool(4, |ctx| {
            let thunks: Vec<_> = (0..16)
                .map(|_| {
                    move |_: &WorkerCtx<'_, '_>| {
                        std::thread::sleep(Duration::from_millis(5));
                        std::thread::current().id()
                    }
                })
                .collect();
            ctx.fork_join(thunks)
        });
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert!(
            distinct.len() >= 2,
            "expected at least one task to be stolen by another worker"
        );
    }

    #[test]
    fn pool_threads_join_on_return() {
        // `run_pool` uses scoped threads: by construction every worker has
        // joined when it returns. Smoke-test that repeated pools don't
        // accumulate anything.
        for _ in 0..16 {
            let v = run_pool(4, |ctx| {
                ctx.fork_join((0..8).map(|i| move |_: &WorkerCtx<'_, '_>| i).collect())
            });
            assert_eq!(v.len(), 8);
        }
    }

    /// Runs `case` on its own thread and returns whether it panicked. A
    /// case that has not finished after 30 s hangs: that fails the test.
    /// The timeout detects a hang, it does not time the search.
    fn panics_without_hanging(case: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(case)).is_err());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the panicking search hung")
    }

    #[test]
    fn root_panic_propagates_from_a_serial_pool() {
        assert!(panics_without_hanging(|| {
            run_pool(1, |_: &WorkerCtx<'_, '_>| panic!("root"));
        }));
    }

    #[test]
    fn root_panic_propagates_from_a_parallel_pool() {
        // The fork spawns the helper first, so shutdown has a parked
        // thread to wake.
        assert!(panics_without_hanging(|| {
            run_pool(2, |ctx| {
                ctx.fork_join(vec![|_: &WorkerCtx<'_, '_>| (), |_: &WorkerCtx<'_, '_>| ()]);
                panic!("root");
            });
        }));
    }

    #[test]
    fn stolen_task_panic_propagates_to_the_forker() {
        // The forker sleeps in its own thunk, so the helper takes the
        // panicking one.
        assert!(panics_without_hanging(|| {
            run_pool(2, |ctx| {
                let thunks: Vec<_> = (0..2)
                    .map(|i| {
                        move |_: &WorkerCtx<'_, '_>| {
                            if i == 0 {
                                std::thread::sleep(Duration::from_millis(300));
                            } else {
                                panic!("stolen task");
                            }
                        }
                    })
                    .collect();
                ctx.fork_join(thunks);
            });
        }));
    }

    #[test]
    fn sharded_memo_roundtrip() {
        let memo: ShardedMemo<Box<[u32]>, u8> = ShardedMemo::new();
        let key = [1u32, 2, 3];
        let fp = fingerprint_ids(&key);
        assert!(memo.get(fp, |k| k.as_ref() == key).is_none());
        memo.insert(fp, key.to_vec().into(), 7);
        assert_eq!(memo.get(fp, |k| k.as_ref() == key), Some(7));
        // A colliding fingerprint with a different key must not match.
        assert_eq!(memo.get(fp, |k| k.as_ref() == [9u32]), None);
        // Re-inserting under an equal key is a no-op.
        memo.insert(fp, key.to_vec().into(), 9);
        assert_eq!(memo.get(fp, |k| k.as_ref() == key), Some(7));
        assert_eq!(memo.len(), 1);
        assert!(!memo.is_empty());
    }

    #[test]
    fn memo_is_shared_across_threads() {
        let memo: Arc<ShardedMemo<u32, u32>> = Arc::new(ShardedMemo::new());
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let memo = Arc::clone(&memo);
                std::thread::spawn(move || {
                    for i in 0..128u32 {
                        let fp = fingerprint_ids(&[i]);
                        memo.insert(fp, i, i * 2);
                        assert_eq!(memo.get(fp, |k| *k == i), Some(i * 2), "thread {t}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(memo.len(), 128);
    }

    #[test]
    fn fingerprints_are_stable_and_length_aware() {
        assert_eq!(fingerprint_ids(&[1, 2, 3]), fingerprint_ids(&[1, 2, 3]));
        assert_ne!(fingerprint_ids(&[1, 2, 3]), fingerprint_ids(&[1, 2]));
        assert_ne!(fingerprint_ids(&[]), fingerprint_ids(&[0]));
    }
}
