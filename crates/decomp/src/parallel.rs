//! The hand-rolled parallel substrate of the decomposition engine: a
//! scoped work-stealing pool, sharded concurrent memo maps, and the
//! [`Options`] knob that selects the degree of parallelism.
//!
//! Zero external dependencies by construction (the build has no registry
//! access): the pool is per-worker lock-free **Chase–Lev deques** — the
//! owner pushes and pops LIFO at the bottom for
//! depth-first locality without any synchronization beyond fences, and
//! thieves CAS-steal FIFO from the top where the biggest subtrees sit —
//! and the memo maps are striped `Mutex<HashMap>` shards addressed by a
//! 64-bit FNV-1a fingerprint of the subproblem.
//!
//! The paper's tool parallelizes exactly this search ("the
//! implementation … makes use of parallelism for the check if ghw ≤ k",
//! §6.4): independent components below a separator are solved as
//! stealable subtasks, and one shared failure memo lets any worker's
//! dead end prune every other worker's search.
//!
//! ## Determinism
//!
//! `Check(·, k)` is a predicate: whichever order workers explore the
//! separator space, an exhaustive search returns *yes* iff a width-≤ k
//! decomposition exists. Parallel runs therefore report the same width
//! as serial runs and a witness that passes `decomp::validate`; only the
//! particular witness tree may differ between runs.

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    /// The serial engine: no pool, no stealing, no extra threads.
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

/// Fork separator components into stealable subtasks only when the
/// split carries at least this many edges in total; smaller splits
/// recurse inline. Forking costs a few heap allocations plus (when a
/// sibling is actually stolen) a scheduler round-trip, so fine-grained
/// splits are cheaper to run in place — the speedup comes from the big
/// early splits and the speculative root separator scan.
pub(crate) const FORK_MIN_EDGES: usize = 8;

/// Fork components only this many recursion levels deep. Splits shrink
/// geometrically, so the first levels carry almost all the stealable
/// work; deeper splits are so frequent and so small that the per-fork
/// bookkeeping measurably outweighs the parallelism they expose.
pub(crate) const FORK_MAX_DEPTH: usize = 2;

/// A unit of stealable work. Receives the context of whichever worker
/// ends up executing it, so nested forks land on that worker's deque.
type Task<'env> = Box<dyn FnOnce(&WorkerCtx<'_, 'env>) + Send + 'env>;

/// Capacity of each worker's deque. Fork fanout is the number of
/// components under one separator and forking is depth-gated
/// ([`FORK_MAX_DEPTH`]), so per-worker backlogs stay tiny; an overflowing
/// push falls back to running the task inline on the owner — identical
/// semantics, merely not stealable.
const DEQUE_CAP: usize = 1024;

/// Outcome of a steal attempt.
enum Steal<T> {
    /// Took the oldest task.
    Taken(T),
    /// The deque was empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
}

/// A fixed-capacity lock-free Chase–Lev work-stealing deque (Chase &
/// Lev, SPAA 2005, with the memory orderings of Lê et al., PPoPP 2013).
///
/// The *owner* pushes and pops at the bottom (LIFO — depth-first
/// locality, no CAS on the fast path); *thieves* steal at the top
/// (FIFO — the oldest, biggest subtrees) with a single CAS. Tasks are
/// double-boxed so each slot is one thin pointer, which the slots store
/// atomically; ownership transfer is mediated entirely by the
/// `top`/`bottom` protocol. Indices grow monotonically (slot = index
/// mod capacity), so there is no ABA.
struct ChaseLev<'env> {
    /// Next index a thief steals from. Only ever incremented.
    top: AtomicIsize,
    /// Next index the owner pushes to. Owner-written only.
    bottom: AtomicIsize,
    /// The circular slot array (length [`DEQUE_CAP`], a power of two).
    slots: Box<[AtomicPtr<Task<'env>>]>,
}

// SAFETY: the raw task pointers are only dereferenced by whichever
// thread won ownership through the top/bottom protocol below, and the
// tasks themselves are `Send`.
unsafe impl Send for ChaseLev<'_> {}
unsafe impl Sync for ChaseLev<'_> {}

impl<'env> ChaseLev<'env> {
    fn new() -> ChaseLev<'env> {
        assert!(DEQUE_CAP.is_power_of_two());
        ChaseLev {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            slots: (0..DEQUE_CAP)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    fn slot(&self, index: isize) -> &AtomicPtr<Task<'env>> {
        &self.slots[index as usize & (DEQUE_CAP - 1)]
    }

    /// Owner-only: pushes at the bottom. Returns the task when the deque
    /// is full so the caller can run it inline instead.
    fn push(&self, task: Task<'env>) -> Result<(), Task<'env>> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= DEQUE_CAP as isize {
            return Err(task);
        }
        let ptr = Box::into_raw(Box::new(task));
        self.slot(b).store(ptr, Ordering::Relaxed);
        // The slot write must be visible before the new bottom is.
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Owner-only: pops at the bottom (the task pushed most recently).
    fn pop(&self) -> Option<Task<'env>> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Publish the speculative bottom before reading top, so a
        // concurrent thief and this pop cannot both take the last task.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let ptr = self.slot(b).load(Ordering::Relaxed);
            if t == b {
                // Last task: race the thieves for it through top.
                if self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief won; restore bottom past the taken slot.
                    self.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                self.bottom.store(b + 1, Ordering::Relaxed);
            }
            // SAFETY: the protocol above gave this thread exclusive
            // ownership of the pointer in slot `b`.
            Some(*unsafe { Box::from_raw(ptr) })
        } else {
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Any thread: steals at the top (the oldest task).
    fn steal(&self) -> Steal<Task<'env>> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            let ptr = self.slot(t).load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                return Steal::Retry;
            }
            // SAFETY: winning the CAS transferred ownership of slot `t`;
            // the slot cannot be overwritten until top has moved past it
            // (the owner's push checks `bottom - top < capacity`).
            Steal::Taken(*unsafe { Box::from_raw(ptr) })
        } else {
            Steal::Empty
        }
    }
}

impl Drop for ChaseLev<'_> {
    fn drop(&mut self) {
        // `&mut self` proves no concurrent owner or thief exists; free
        // whatever tasks were never executed (only reachable after a
        // panic unwound past a fork).
        while self.pop().is_some() {}
    }
}

struct Shared<'env> {
    queues: Vec<ChaseLev<'env>>,
    shutdown: AtomicBool,
}

impl<'env> Shared<'env> {
    fn new(workers: usize) -> Shared<'env> {
        Shared {
            queues: (0..workers).map(|_| ChaseLev::new()).collect(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Pops from `index`'s own deque bottom (LIFO), else steals from the
    /// top of the first non-empty sibling deque (FIFO). A lost steal
    /// race is retried on the same victim: retries only happen when some
    /// other thread took a task, so the system as a whole is making
    /// progress.
    fn find_task(&self, index: usize) -> Option<Task<'env>> {
        if let Some(t) = self.queues[index].pop() {
            return Some(t);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (index + off) % n;
            loop {
                match self.queues[victim].steal() {
                    Steal::Taken(t) => {
                        crate::metrics::metrics().steals.inc();
                        return Some(t);
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        None
    }
}

/// Handle to the pool held by one participating thread (the caller is
/// worker 0; spawned threads are workers 1..jobs). Forked subtasks go to
/// this worker's own deque, where siblings steal them.
pub struct WorkerCtx<'p, 'env> {
    shared: &'p Shared<'env>,
    index: usize,
}

/// Result slots of one fork: `filled[i]` receives thunk `i + 1`'s value
/// (thunk 0 runs inline on the forking worker).
struct ForkSlots<T> {
    filled: Vec<Mutex<Option<T>>>,
    remaining: AtomicUsize,
}

impl<'p, 'env> WorkerCtx<'p, 'env> {
    /// Runs every thunk — thunk 0 inline, the rest as stealable tasks —
    /// and returns their results in input order. While waiting for
    /// stolen siblings, the forking worker *helps*: it keeps executing
    /// pool tasks (its own or stolen), so a saturated pool never
    /// deadlocks and no worker idles while work is pending.
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
        let slots = Arc::new(ForkSlots {
            filled: rest.iter().map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(rest.len()),
        });
        {
            let q = &self.shared.queues[self.index];
            for (i, f) in rest.into_iter().enumerate() {
                let slots = Arc::clone(&slots);
                let task: Task<'env> = Box::new(move |ctx: &WorkerCtx<'_, 'env>| {
                    let v = f(ctx);
                    *slots.filled[i].lock().expect("fork slot") = Some(v);
                    slots.remaining.fetch_sub(1, Ordering::Release);
                });
                if let Err(task) = q.push(task) {
                    // Deque full (absurd fanout): run in place — same
                    // result, just not stealable.
                    task(self);
                }
            }
        }
        let mut out: Vec<T> = Vec::with_capacity(slots.filled.len() + 1);
        out.push(first(self));
        // Help until every sibling (possibly running on a thief) is done.
        while slots.remaining.load(Ordering::Acquire) > 0 {
            match self.shared.find_task(self.index) {
                Some(t) => {
                    crate::metrics::metrics().helping_joins.inc();
                    t(self);
                }
                None => std::thread::yield_now(),
            }
        }
        for slot in slots.filled.iter() {
            out.push(
                slot.lock()
                    .expect("fork slot")
                    .take()
                    .expect("sibling completed"),
            );
        }
        out
    }

    /// Number of workers in the pool (≥ 2 whenever a pool exists).
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }
}

fn worker_loop<'env>(shared: &Shared<'env>, index: usize) {
    let ctx = WorkerCtx { shared, index };
    let mut idle_spins: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match shared.find_task(index) {
            Some(t) => {
                idle_spins = 0;
                t(&ctx);
            }
            None => {
                // Spin briefly (work usually arrives in bursts mid-search),
                // then back off to a short sleep so an idle pool costs
                // almost nothing while the owner runs a serial phase.
                idle_spins += 1;
                if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }
}

/// Runs `root` on the calling thread with `jobs - 1` extra scoped
/// workers stealing the subtasks it forks. All workers join before this
/// returns — the pool cannot leak threads past the search that spawned
/// it. With `jobs <= 1` no threads are spawned and forks run inline.
pub fn run_pool<'env, R>(jobs: usize, root: impl FnOnce(&WorkerCtx<'_, 'env>) -> R) -> R {
    let workers = jobs.max(1);
    let shared = Shared::new(workers);
    std::thread::scope(|s| {
        for i in 1..workers {
            let shared = &shared;
            std::thread::Builder::new()
                .name(format!("hyperbench-decomp-{i}"))
                .spawn_scoped(s, move || worker_loop(shared, i))
                .expect("spawn decomposition worker");
        }
        let ctx = WorkerCtx {
            shared: &shared,
            index: 0,
        };
        let r = root(&ctx);
        shared.shutdown.store(true, Ordering::Release);
        r
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

    #[test]
    fn chase_lev_owner_is_lifo_thief_is_fifo() {
        let shared = Shared::new(1);
        let ctx = WorkerCtx {
            shared: &shared,
            index: 0,
        };
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let q = ChaseLev::new();
        for i in 0..4 {
            let log = Arc::clone(&log);
            q.push(Box::new(move |_: &WorkerCtx<'_, '_>| {
                log.lock().unwrap().push(i)
            }))
            .ok()
            .expect("push within capacity");
        }
        // A thief takes the *oldest* task (FIFO)…
        match q.steal() {
            Steal::Taken(t) => t(&ctx),
            _ => panic!("steal from a non-empty deque"),
        }
        // …the owner drains the rest newest-first (LIFO).
        while let Some(t) = q.pop() {
            t(&ctx);
        }
        assert_eq!(*log.lock().unwrap(), vec![0, 3, 2, 1]);
        assert!(q.pop().is_none());
        assert!(matches!(q.steal(), Steal::Empty));
    }

    #[test]
    fn chase_lev_overflow_returns_the_task() {
        let q = ChaseLev::new();
        for _ in 0..DEQUE_CAP {
            q.push(Box::new(|_: &WorkerCtx<'_, '_>| {}))
                .ok()
                .expect("push within capacity");
        }
        assert!(q.push(Box::new(|_: &WorkerCtx<'_, '_>| {})).is_err());
        // Popping one frees a slot again.
        assert!(q.pop().is_some());
        assert!(q.push(Box::new(|_: &WorkerCtx<'_, '_>| {})).is_ok());
    }

    #[test]
    fn chase_lev_concurrent_steals_take_every_task_once() {
        // 4 thieves race the owner for 4096 counter increments; every
        // task must run exactly once whoever wins each race.
        let q = Arc::new(ChaseLev::new());
        let shared = Shared::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let produced = 4096usize;
        std::thread::scope(|s| {
            let stop = Arc::new(AtomicBool::new(false));
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                let shared = &shared;
                s.spawn(move || {
                    let ctx = WorkerCtx { shared, index: 0 };
                    loop {
                        match q.steal() {
                            Steal::Taken(t) => t(&ctx),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if stop.load(Ordering::Acquire) {
                                    return;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
            let ctx = WorkerCtx {
                shared: &shared,
                index: 0,
            };
            let mut pending = 0usize;
            for _ in 0..produced {
                let counter = Arc::clone(&counter);
                let task: Task<'_> = Box::new(move |_: &WorkerCtx<'_, '_>| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                match q.push(task) {
                    Ok(()) => pending += 1,
                    Err(task) => task(&ctx),
                }
                // Interleave owner pops with thief steals.
                if pending.is_multiple_of(3) {
                    if let Some(t) = q.pop() {
                        t(&ctx);
                    }
                }
            }
            while let Some(t) = q.pop() {
                t(&ctx);
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(counter.load(Ordering::Relaxed), produced);
    }

    #[test]
    fn fork_join_survives_deque_overflow() {
        // 2000 siblings overflow the 1024-slot deque; the overflow runs
        // inline and every result still lands in input order.
        for jobs in [1usize, 4] {
            let out = run_pool(jobs, |ctx| {
                let thunks: Vec<_> = (0..2000)
                    .map(|i| move |_: &WorkerCtx<'_, '_>| i * 3)
                    .collect();
                ctx.fork_join(thunks)
            });
            assert_eq!(out, (0..2000).map(|i| i * 3).collect::<Vec<_>>());
        }
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
