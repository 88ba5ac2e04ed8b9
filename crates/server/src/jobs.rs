//! Background analysis jobs: `POST /v1/analyses` enqueues, a dedicated
//! worker pool drains, `GET /v1/analyses/{id}` polls. The queue is
//! bounded — a full queue turns into a 503 at the HTTP layer instead of
//! unbounded memory growth — and results are published to the shared
//! [`AnalysisCache`]. Each job also starts from, and adds to, what
//! earlier analyses proved about its document ([`FactsCache`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyperbench_api::AnalyzeMethod;
use hyperbench_core::Hypergraph;
use hyperbench_repo::{analyze_with_facts, AnalysisConfig};
use hyperbench_telemetry::{log_debug, log_warn, trace, SpanTimer};

use crate::cache::{hash_canonical, AnalysisCache, ContentHash, FactsCache, JobResult};
use crate::metrics::metrics;

/// Per-submission analysis options, carried from the typed
/// `AnalyzeRequest` through the queue to the worker. The options are
/// part of the cache identity (see [`AnalyzeOptions::cache_key`]): the
/// same document analyzed as `hd` and as `ghd` is two cache entries,
/// never a false hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Which decomposition notion to search.
    pub method: AnalyzeMethod,
    /// Largest width tried.
    pub k_max: usize,
    /// Per-`Check` timeout budget.
    pub per_check: Duration,
    /// Worker threads per decomposition search (already clamped to the
    /// server's per-job parallelism ceiling by the handler).
    pub jobs: usize,
}

impl AnalyzeOptions {
    /// A stable string folded into the content hash and dedup identity.
    ///
    /// `jobs` is deliberately *not* part of the key: the engine
    /// guarantees the same width bounds at any worker count, so a result
    /// computed with `jobs=4` answers a `jobs=1` submission (and warm
    /// spill segments written before the knob existed stay valid).
    pub fn cache_key(&self) -> String {
        format!(
            "{}:{}:{}",
            self.method.as_str(),
            self.k_max,
            self.per_check.as_millis()
        )
    }

    /// The effective analysis budget: these options over the server's
    /// base config (which keeps budgets the request cannot override,
    /// like `vc_budget`).
    pub fn config(&self, base: &AnalysisConfig) -> AnalysisConfig {
        AnalysisConfig {
            per_check: self.per_check,
            k_max: self.k_max,
            vc_budget: base.vc_budget,
            jobs: self.jobs.max(1),
        }
    }
}

/// The two identities of a submitted document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocKey {
    /// Hash of [`DocKey::keyed`]: the analysis-cache and in-flight
    /// dedup identity.
    pub hash: ContentHash,
    /// The options key, a newline, then the canonical document (see
    /// [`crate::cache::canonicalize`]).
    pub keyed: String,
    /// Hash of the canonical document alone: the facts identity, shared
    /// by every method and budget.
    pub doc_hash: ContentHash,
}

impl DocKey {
    /// The key of `canonical` (an already canonicalized document)
    /// analyzed under `options`.
    pub fn new(canonical: &str, options: &AnalyzeOptions) -> DocKey {
        let keyed = format!("{}\n{canonical}", options.cache_key());
        DocKey {
            hash: hash_canonical(&keyed),
            keyed,
            doc_hash: hash_canonical(canonical),
        }
    }

    /// The canonical document: [`DocKey::keyed`] after its options line.
    pub fn doc(&self) -> &str {
        self.keyed
            .split_once('\n')
            .map_or(self.keyed.as_str(), |(_, doc)| doc)
    }
}

/// A job identifier, dense from 0.
pub type JobId = u64;

/// How many finished (done/failed) job statuses are retained for
/// polling. Older finished jobs are evicted, so the status map stays
/// bounded on a long-running server no matter how many submissions it
/// sees; a poll for an evicted job answers 404 like an unknown id.
///
/// A done status pins its whole result (hypergraph and witness DTO:
/// tens of KiB each), so this bound, not the cache's, caps
/// the results a busy server holds. The default cache capacity is this
/// same constant: the statuses of recent jobs then share the results the
/// cache holds anyway, and a server that answers faster holds no more.
pub const MAX_FINISHED_RETAINED: usize = 1024;

/// Lifecycle of one submitted analysis.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is analyzing it.
    Running,
    /// Finished; the result is available (and cached). The flag says
    /// whether the result came straight from the cache.
    Done {
        /// The full analysis result, witness included.
        result: Arc<JobResult>,
        /// Whether the submission was served from the cache.
        cached: bool,
    },
    /// The submission could not be analyzed (parse error and friends).
    Failed(String),
}

/// Counters exposed through `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobStats {
    /// Jobs submitted over the server's lifetime.
    pub submitted: usize,
    /// Jobs currently waiting.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Submissions answered with an already queued/running job id
    /// (in-flight dedup).
    pub deduped: usize,
    /// Jobs that started from facts an earlier analysis of the same
    /// document recorded.
    pub facts_reused: usize,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity. Maps to 503.
    QueueFull {
        /// The configured bound.
        capacity: usize,
        /// Seconds until the queue is predicted to have drained enough
        /// to accept work again (from the observed service time).
        retry_after: u32,
    },
    /// Admission control shed the submission: the predicted queue wait
    /// (depth × observed service time ÷ workers) exceeds
    /// [`MAX_PREDICTED_WAIT`]. Maps to 429 — the queue still has slots,
    /// but a caller would wait longer than any sane deadline, so it is
    /// cheaper for everyone to shed now. Distinct from `QueueFull`
    /// (hard capacity) so dashboards can tell load shedding from
    /// undersized queues.
    Overloaded {
        /// Seconds the caller should back off — the predicted wait.
        retry_after: u32,
    },
    /// The system is shutting down.
    ShuttingDown,
}

/// Admission bound: a submission predicted to wait longer than this in
/// the queue is shed with a 429 instead of being enqueued.
pub const MAX_PREDICTED_WAIT: Duration = Duration::from_secs(10);

struct QueueItem {
    id: JobId,
    hypergraph: Hypergraph,
    key: DocKey,
    options: AnalyzeOptions,
    /// The tracing id of the HTTP request that enqueued this job,
    /// carried to the worker (and from there into the decomposition
    /// budget's ambient request id).
    request_id: u64,
    /// When the item entered the queue — the queue-wait span.
    enqueued: Instant,
    /// The client's propagated deadline: a job still queued past it is
    /// dropped unstarted (the caller has already given up).
    deadline: Option<Instant>,
}

struct JobState {
    queue: VecDeque<QueueItem>,
    statuses: HashMap<JobId, JobStatus>,
    // Content hashes currently queued or running → (canonical document,
    // job id), so a concurrent resubmission of the same document shares
    // the job instead of running the analysis twice. The document is
    // compared on lookup; a hash collision must not join the wrong job.
    inflight: HashMap<ContentHash, (String, JobId)>,
    // Finished job ids in completion order; the eviction queue keeping
    // `statuses` bounded by MAX_FINISHED_RETAINED.
    finished: VecDeque<JobId>,
    next_id: JobId,
    submitted: usize,
    running: usize,
    done: usize,
    failed: usize,
    deduped: usize,
    facts_reused: usize,
    /// EWMA of decompose service time in microseconds (0 until the
    /// first job completes — admission control stays open cold so a
    /// fresh server never sheds on a guess).
    avg_service_us: f64,
}

impl JobState {
    /// Records a terminal status and evicts the oldest finished job
    /// beyond the retention bound.
    fn finish(&mut self, id: JobId, status: JobStatus) {
        self.statuses.insert(id, status);
        self.finished.push_back(id);
        while self.finished.len() > MAX_FINISHED_RETAINED {
            if let Some(old) = self.finished.pop_front() {
                self.statuses.remove(&old);
            }
        }
    }
}

/// The job system: bounded queue + worker pool + result store.
pub struct JobSystem {
    state: Arc<(Mutex<JobState>, Condvar)>,
    cache: Arc<AnalysisCache>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    worker_count: usize,
}

impl JobSystem {
    /// Starts `workers` analysis workers with a queue bound of
    /// `queue_capacity` and the given analysis budgets. The facts store
    /// holds as many documents as `cache`.
    pub fn start(
        workers: usize,
        queue_capacity: usize,
        cache: Arc<AnalysisCache>,
        config: AnalysisConfig,
    ) -> JobSystem {
        let state = Arc::new((
            Mutex::new(JobState {
                queue: VecDeque::new(),
                statuses: HashMap::new(),
                inflight: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 0,
                submitted: 0,
                running: 0,
                done: 0,
                failed: 0,
                deduped: 0,
                facts_reused: 0,
                avg_service_us: 0.0,
            }),
            Condvar::new(),
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let facts = Arc::new(FactsCache::new(cache.stats().capacity));
        let handles = (0..workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                let cache = Arc::clone(&cache);
                let facts = Arc::clone(&facts);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("hyperbench-analyze-{i}"))
                    .spawn(move || worker_loop(&state, &cache, &facts, &shutdown, &config))
                    .expect("spawn analysis worker")
            })
            .collect();
        JobSystem {
            state,
            cache,
            shutdown,
            workers: handles,
            queue_capacity: queue_capacity.max(1),
            worker_count: workers.max(1),
        }
    }

    /// Submits a parsed hypergraph under its [`DocKey`]. On a cache hit
    /// the job completes immediately without touching the queue; a
    /// document already queued or running under the same options shares
    /// that job id; otherwise it is enqueued unless the queue is full.
    pub fn submit(
        &self,
        hypergraph: Hypergraph,
        key: DocKey,
        options: AnalyzeOptions,
    ) -> Result<JobId, SubmitError> {
        self.submit_traced(hypergraph, key, options, trace::current_request_id(), None)
    }

    /// [`JobSystem::submit`] with an explicit tracing id and propagated
    /// client deadline: the HTTP layer passes the id assigned at accept
    /// so worker log lines and the decomposition budget share the
    /// request's `req=` key, and the deadline so a job the caller has
    /// given up on is dropped instead of analyzed.
    pub fn submit_traced(
        &self,
        hypergraph: Hypergraph,
        key: DocKey,
        options: AnalyzeOptions,
        request_id: u64,
        deadline: Option<Instant>,
    ) -> Result<JobId, SubmitError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let (lock, cvar) = &*self.state;
        let mut state = lock.lock().expect("job lock");
        let id = state.next_id;
        if let Some(result) = self.cache.get(key.hash, &key.keyed) {
            state.next_id += 1;
            state.submitted += 1;
            state.done += 1;
            state.finish(
                id,
                JobStatus::Done {
                    result,
                    cached: true,
                },
            );
            return Ok(id);
        }
        // The same document already queued or running: share its job id
        // rather than burning a second queue slot and analysis run.
        if let Some((doc, existing)) = state.inflight.get(&key.hash) {
            if *doc == key.keyed {
                let existing = *existing;
                state.deduped += 1;
                return Ok(existing);
            }
        }
        // Admission control: predict how long this submission would
        // wait behind the queue at the observed service rate, and shed
        // early when the wait exceeds the bound — a 429 now beats an
        // answer after the caller gave up. Cold (no completed jobs yet)
        // the prediction is zero, so a fresh server never sheds.
        let predicted_wait = self.predicted_wait(&state);
        if predicted_wait > MAX_PREDICTED_WAIT {
            metrics().jobs_shed_total.inc();
            log_warn!("jobs", "shedding submission";
                req = request_id,
                depth = state.queue.len(),
                predicted_wait_ms = predicted_wait.as_millis() as u64);
            return Err(SubmitError::Overloaded {
                retry_after: retry_after_secs(predicted_wait),
            });
        }
        if state.queue.len() >= self.queue_capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.queue_capacity,
                retry_after: retry_after_secs(predicted_wait),
            });
        }
        state.next_id += 1;
        state.submitted += 1;
        state.statuses.insert(id, JobStatus::Queued);
        state.inflight.insert(key.hash, (key.keyed.clone(), id));
        state.queue.push_back(QueueItem {
            id,
            hypergraph,
            key,
            options,
            request_id,
            enqueued: Instant::now(),
            deadline,
        });
        metrics().jobs_queue_depth.set(state.queue.len() as i64);
        log_debug!("jobs", "enqueued"; req = request_id, job = id, depth = state.queue.len());
        cvar.notify_one();
        Ok(id)
    }

    /// Predicted queue wait for a new submission: items ahead of it
    /// spread over the workers, at the EWMA service time.
    fn predicted_wait(&self, state: &JobState) -> Duration {
        let ahead = state.queue.len() as f64;
        let us = ahead * state.avg_service_us / self.worker_count as f64;
        Duration::from_micros(us as u64)
    }

    /// Records a submission that failed before reaching the queue (e.g.
    /// an unparsable body), so clients can still poll its job id.
    pub fn submit_failed(&self, message: String) -> JobId {
        let (lock, _) = &*self.state;
        let mut state = lock.lock().expect("job lock");
        let id = state.next_id;
        state.next_id += 1;
        state.submitted += 1;
        state.failed += 1;
        state.finish(id, JobStatus::Failed(message));
        id
    }

    /// The current status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let (lock, _) = &*self.state;
        lock.lock().expect("job lock").statuses.get(&id).cloned()
    }

    /// A snapshot of the queue/throughput counters.
    pub fn stats(&self) -> JobStats {
        let (lock, _) = &*self.state;
        let state = lock.lock().expect("job lock");
        JobStats {
            submitted: state.submitted,
            queued: state.queue.len(),
            running: state.running,
            done: state.done,
            failed: state.failed,
            deduped: state.deduped,
            facts_reused: state.facts_reused,
        }
    }

    /// Blocks until the job leaves the queued/running states (test and
    /// example helper; HTTP clients poll instead). Woken by the worker's
    /// completion notification rather than a fixed-interval sleep; the
    /// timeout only guards against a wakeup lost to a racing status
    /// change.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let (lock, cvar) = &*self.state;
        let mut guard = lock.lock().expect("job lock");
        loop {
            match guard.statuses.get(&id) {
                Some(JobStatus::Queued) | Some(JobStatus::Running) => {
                    let (g, _) = cvar
                        .wait_timeout(guard, Duration::from_millis(50))
                        .expect("job lock");
                    guard = g;
                }
                other => return other.cloned(),
            }
        }
    }
}

impl Drop for JobSystem {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (_, cvar) = &*self.state;
        cvar.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Rounds a predicted wait up to whole seconds for a `Retry-After`
/// header, clamped to `[1, 60]` — long enough to matter, short enough
/// that a recovered server is rediscovered quickly.
fn retry_after_secs(wait: Duration) -> u32 {
    u32::try_from(wait.as_secs().saturating_add(1))
        .unwrap_or(60)
        .clamp(1, 60)
}

fn worker_loop(
    state: &(Mutex<JobState>, Condvar),
    cache: &AnalysisCache,
    facts: &FactsCache,
    shutdown: &AtomicBool,
    config: &AnalysisConfig,
) {
    let (lock, cvar) = state;
    loop {
        let item = {
            let mut guard = lock.lock().expect("job lock");
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(item) = guard.queue.pop_front() {
                    guard.running += 1;
                    guard.statuses.insert(item.id, JobStatus::Running);
                    metrics().jobs_queue_depth.set(guard.queue.len() as i64);
                    break item;
                }
                guard = cvar.wait(guard).expect("job lock");
            }
        };
        let queue_wait_us = u64::try_from(item.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
        metrics().jobs_queue_wait_us.observe(queue_wait_us);
        // A job whose propagated deadline passed while it queued is
        // dropped unstarted: the caller has already timed out, so the
        // work would only steal service time from live requests.
        if let Some(deadline) = item.deadline {
            if Instant::now() >= deadline {
                metrics().jobs_deadline_skipped_total.inc();
                log_warn!("jobs", "dropping job past its deadline";
                    req = item.request_id, job = item.id, queue_wait_us = queue_wait_us);
                let mut guard = lock.lock().expect("job lock");
                guard.running -= 1;
                guard.inflight.remove(&item.key.hash);
                guard.failed += 1;
                guard.finish(
                    item.id,
                    JobStatus::Failed("deadline exceeded while queued".to_string()),
                );
                cvar.notify_all();
                continue;
            }
        }
        // Run the analysis outside the lock — this is the long part.
        // Client-supplied hypergraphs reach deep into the decomposition
        // code; a panic there must fail the one job, not kill the
        // worker (which would leave the job "running" forever and its
        // hash stuck in the dedup map). The request id rides along as
        // the thread's ambient id so budgets created inside the engine
        // tag their log lines with it.
        let mut cfg = item.options.config(config);
        // Clamp the per-Check budget to the caller's remaining time: a
        // hard stop at the deadline instead of polishing an answer
        // nobody is waiting for.
        if let Some(deadline) = item.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            cfg.per_check = cfg.per_check.min(remaining);
        }
        let clamped = cfg.per_check < item.options.per_check;
        // Start from what earlier analyses of this document proved. The
        // facts hold under any budget, so a clamped run may use them and
        // record what it decides.
        let mut known = facts.get(item.key.doc_hash, item.key.doc());
        let reused = !known.is_empty();
        if reused {
            metrics().jobs_facts_reused.inc();
        }
        let decompose = SpanTimer::start();
        let outcome = trace::with_request_id(item.request_id, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                analyze_with_facts(&item.hypergraph, &cfg, item.options.method, &mut known)
            }))
        });
        if outcome.is_ok() {
            facts.record(item.key.doc_hash, item.key.doc(), known);
        }
        let decompose_us = decompose.observe(&metrics().jobs_decompose_us);
        log_debug!(
            "jobs",
            "analysis finished";
            req = item.request_id,
            job = item.id,
            method = item.options.method.as_str(),
            queue_wait_us = queue_wait_us,
            decompose_us = decompose_us,
            panicked = outcome.is_err()
        );
        if outcome.is_err() {
            log_warn!("jobs", "analysis panicked"; req = item.request_id, job = item.id);
        }
        let mut guard = lock.lock().expect("job lock");
        guard.running -= 1;
        guard.inflight.remove(&item.key.hash);
        if reused {
            guard.facts_reused += 1;
        }
        // Fold the observed service time into the admission EWMA
        // (α = 0.2: reactive to load shifts, stable against one
        // outlier; seeded by the first sample).
        guard.avg_service_us = if guard.avg_service_us == 0.0 {
            decompose_us as f64
        } else {
            guard.avg_service_us * 0.8 + decompose_us as f64 * 0.2
        };
        metrics()
            .jobs_service_avg_us
            .set(guard.avg_service_us as i64);
        match outcome {
            Ok(analyzed) => {
                // Serialize (and validate) the witness once, here, so
                // polls of the finished analysis are pure lookups.
                let witness_dto = analyzed.witness.as_ref().map(|d| {
                    hyperbench_api::DecompositionDto::from_tree(
                        &item.hypergraph,
                        d,
                        item.options.method,
                        analyzed.fractional_width.clone(),
                    )
                });
                let result = Arc::new(JobResult {
                    hypergraph: item.hypergraph,
                    method: item.options.method,
                    record: analyzed.record,
                    witness: None,
                    witness_dto,
                    fractional_width: analyzed.fractional_width,
                });
                // The cache answers later submissions under the
                // unclamped options: an answer cut short by one caller's
                // deadline is that caller's alone.
                if !(clamped && result.record.hw_timed_out) {
                    cache.put(item.key.hash, item.key.keyed, Arc::clone(&result));
                }
                guard.done += 1;
                guard.finish(
                    item.id,
                    JobStatus::Done {
                        result,
                        cached: false,
                    },
                );
            }
            Err(_) => {
                guard.failed += 1;
                guard.finish(
                    item.id,
                    JobStatus::Failed("analysis panicked on this input".to_string()),
                );
            }
        }
        // The result landed: wake anything blocked in `wait` (idle
        // workers also wake, see an empty queue, and go back to sleep).
        cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    fn system(workers: usize, capacity: usize) -> JobSystem {
        JobSystem::start(
            workers,
            capacity,
            Arc::new(AnalysisCache::new(8)),
            AnalysisConfig::default(),
        )
    }

    /// A key with an arbitrary hash for both identities.
    fn key(hash: u64, keyed: impl Into<String>) -> DocKey {
        DocKey {
            hash: ContentHash(hash),
            keyed: keyed.into(),
            doc_hash: ContentHash(hash),
        }
    }

    fn opts() -> AnalyzeOptions {
        let config = AnalysisConfig::default();
        AnalyzeOptions {
            method: AnalyzeMethod::Hd,
            k_max: config.k_max,
            per_check: config.per_check,
            jobs: 1,
        }
    }

    #[test]
    fn submit_run_poll() {
        let jobs = system(2, 8);
        let id = jobs.submit(triangle(), key(1, "t"), opts()).unwrap();
        match jobs.wait(id) {
            Some(JobStatus::Done { result, cached }) => {
                assert!(!cached);
                assert_eq!(result.record.hw_exact(), Some(2));
                // The witness rides along as its DTO, validated; the
                // tree is not kept beside it.
                let w = result.witness_dto.as_ref().expect("witness retained");
                assert_eq!(w.width, 2);
                assert_eq!(w.validation, "valid-hd");
                assert!(result.witness.is_none());
            }
            other => panic!("unexpected status {other:?}"),
        }
        let stats = jobs.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.done, 1);
    }

    #[test]
    fn repeated_submission_hits_cache() {
        let jobs = system(1, 8);
        let first = jobs.submit(triangle(), key(7, "t"), opts()).unwrap();
        assert!(matches!(
            jobs.wait(first),
            Some(JobStatus::Done { cached: false, .. })
        ));
        let second = jobs.submit(triangle(), key(7, "t"), opts()).unwrap();
        // Immediately done, no queue round-trip.
        assert!(matches!(
            jobs.status(second),
            Some(JobStatus::Done { cached: true, .. })
        ));
    }

    #[test]
    fn queue_bound_rejects() {
        // No workers can drain fast enough to matter: capacity 1, and the
        // first job may already be running, so fill with two more.
        let jobs = system(1, 1);
        let mut rejected = false;
        for i in 0..10 {
            if let Err(SubmitError::QueueFull { capacity, .. }) =
                jobs.submit(triangle(), key(100 + i, format!("t{i}")), opts())
            {
                assert_eq!(capacity, 1);
                rejected = true;
                break;
            }
        }
        assert!(rejected, "bounded queue never rejected");
    }

    #[test]
    fn failed_submissions_are_pollable() {
        let jobs = system(1, 4);
        let id = jobs.submit_failed("parse error: nope".to_string());
        match jobs.status(id) {
            Some(JobStatus::Failed(msg)) => assert!(msg.contains("parse error")),
            other => panic!("unexpected status {other:?}"),
        }
        assert_eq!(jobs.stats().failed, 1);
    }

    #[test]
    fn unknown_job_is_none() {
        assert!(system(1, 4).status(999).is_none());
    }

    #[test]
    fn inflight_resubmission_shares_the_job() {
        let jobs = system(1, 8);
        // Occupy the single worker so the target job stays queued.
        let blocker = hypergraph_from_edges(&[("b1", &["p", "q"]), ("b2", &["q", "r"])]);
        jobs.submit(blocker, key(50, "blocker"), opts()).unwrap();
        let first = jobs.submit(triangle(), key(51, "t"), opts()).unwrap();
        let second = jobs.submit(triangle(), key(51, "t"), opts()).unwrap();
        // Either the job was still in flight (same id) or it finished
        // between the two submits (cache hit) — never a second run.
        let deduped = second == first;
        let cached = matches!(
            jobs.status(second),
            Some(JobStatus::Done { cached: true, .. })
        );
        assert!(deduped || cached, "resubmission spawned a duplicate job");
        assert!(matches!(jobs.wait(first), Some(JobStatus::Done { .. })));
    }

    #[test]
    fn admission_sheds_on_predicted_wait() {
        let jobs = system(1, 100);
        // Stage an overloaded queue by hand: two items deep (pushed
        // without notifying, so the worker stays asleep) at a learned
        // service time of a minute per job → predicted wait 120 s.
        {
            let (lock, _) = &*jobs.state;
            let mut state = lock.lock().unwrap();
            state.avg_service_us = 60_000_000.0;
            for i in 0..2 {
                state.queue.push_back(QueueItem {
                    id: 1000 + i,
                    hypergraph: triangle(),
                    key: key(200 + i, format!("staged{i}")),
                    options: opts(),
                    request_id: 0,
                    enqueued: Instant::now(),
                    deadline: None,
                });
            }
        }
        match jobs.submit(triangle(), key(300, "fresh"), opts()) {
            Err(SubmitError::Overloaded { retry_after }) => {
                assert!(retry_after >= 1, "Retry-After must be actionable");
            }
            other => panic!("expected a shed, got {other:?}"),
        }
    }

    /// The r×c grid graph, one binary edge per adjacent pair.
    fn grid(r: usize, c: usize) -> Hypergraph {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        let v = |i: usize, j: usize| format!("g{i}_{j}");
        for i in 0..r {
            for j in 0..c {
                if j + 1 < c {
                    b.add_edge(&format!("h{i}_{j}"), &[v(i, j), v(i, j + 1)]);
                }
                if i + 1 < r {
                    b.add_edge(&format!("v{i}_{j}"), &[v(i, j), v(i + 1, j)]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn a_deadline_clamped_timeout_is_not_cached() {
        let jobs = system(1, 8);
        // Check(HD,2) on the 10×10 grid runs for seconds even in an
        // optimized build, so a caller with 300 ms left clamps it into
        // a timeout whatever the machine.
        let options = AnalyzeOptions {
            k_max: 2,
            per_check: Duration::from_secs(1),
            ..opts()
        };
        let impatient = jobs
            .submit_traced(
                grid(10, 10),
                key(11, "grid"),
                options,
                0,
                Some(Instant::now() + Duration::from_millis(300)),
            )
            .unwrap();
        match jobs.wait(impatient) {
            Some(JobStatus::Done {
                result,
                cached: false,
            }) => assert!(result.record.hw_timed_out, "the clamp must bite"),
            other => panic!("unexpected status {other:?}"),
        }
        // Without a deadline the same document and options must run:
        // the clamped timeout answered its caller, and nobody else.
        let patient = jobs.submit(grid(10, 10), key(11, "grid"), options).unwrap();
        assert_ne!(patient, impatient);
        match jobs.wait(patient) {
            Some(JobStatus::Done { cached, .. }) => assert!(!cached, "served the clamped answer"),
            other => panic!("unexpected status {other:?}"),
        }
        assert_eq!(jobs.cache.stats().hits, 0);
        assert_eq!(jobs.stats().done, 2);
    }

    #[test]
    fn expired_deadline_drops_the_job_unstarted() {
        let jobs = system(1, 8);
        let id = jobs
            .submit_traced(triangle(), key(9, "t"), opts(), 0, Some(Instant::now()))
            .unwrap();
        match jobs.wait(id) {
            Some(JobStatus::Failed(msg)) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("unexpected status {other:?}"),
        }
        assert_eq!(jobs.stats().failed, 1);
    }

    #[test]
    fn finished_statuses_are_bounded() {
        let jobs = system(1, 4);
        // Terminal statuses beyond the retention bound are evicted
        // oldest-first, keeping the map bounded under failure floods.
        for i in 0..(MAX_FINISHED_RETAINED + 10) {
            jobs.submit_failed(format!("bad submission {i}"));
        }
        let (lock, _) = &*jobs.state;
        assert_eq!(lock.lock().unwrap().statuses.len(), MAX_FINISHED_RETAINED);
        assert!(jobs.status(0).is_none(), "oldest job should be evicted");
        assert!(jobs.status((MAX_FINISHED_RETAINED + 9) as JobId).is_some());
    }
}
