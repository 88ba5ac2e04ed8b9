//! # hyperbench-harness
//!
//! The experiment harness regenerating every table and figure of the
//! HyperBench paper's evaluation (§6), plus the `hyperbench` CLI.
//!
//! The harness (i) generates the benchmark via [`hyperbench_datagen`],
//! (ii) runs the shared analysis pass (properties + iterative hw search)
//! in parallel, and (iii) feeds the results to one experiment module per
//! table/figure:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`experiments::table1`] | Table 1 — benchmark overview |
//! | [`experiments::table2`] | Table 2 — property distributions |
//! | [`experiments::fig3`]   | Figure 3 — size histograms |
//! | [`experiments::fig4`]   | Figure 4 — hw analysis per class |
//! | [`experiments::fig5`]   | Figure 5 — correlation matrix |
//! | [`experiments::table3`] | Table 3 — GHD algorithm comparison |
//! | [`experiments::table4`] | Table 4 — first-of-three GHD race, and the hybrid alone |
//! | [`experiments::table5`] | Table 5 — ImproveHD |
//! | [`experiments::table6`] | Table 6 — FracImproveHD |
//! | [`experiments::summary`]| §6.2 headline findings, hw gaps left open |

#![forbid(unsafe_code)]

pub mod corr;
pub mod experiments;
pub mod report;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use hyperbench_datagen::{generate_benchmark, Instance};
use hyperbench_repo::{analyze_instance, AnalysisConfig, AnalysisRecord};

/// Configuration of a harness run. The defaults are laptop-scale: the
/// paper ran 3,648 instances with 3600 s timeouts on a cluster; we default
/// to a fraction of the instance count and sub-second timeouts, which
/// preserves the qualitative shape of every result.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// RNG seed for benchmark generation.
    pub seed: u64,
    /// Fraction of Table-1 instance counts to generate (1.0 = full size).
    pub scale: f64,
    /// Timeout per `Check(HD,k)` call in the analysis pass.
    pub per_check: Duration,
    /// Largest `k` tried by the hw search.
    pub k_max: usize,
    /// VC-dimension budget (number of shatter checks).
    pub vc_budget: u64,
    /// Timeout per `Check(GHD,k)` call (Tables 3, 4) and per
    /// FracImproveHD probe (Table 6).
    pub ghd_timeout: Duration,
    /// Worker threads for the analysis pass (0 = all cores): the
    /// *instance-level* fan-out — table reproductions analyze many
    /// instances concurrently.
    pub threads: usize,
    /// Worker threads *per decomposition search* (1 = serial engine).
    /// Multiplies with `threads`: total CPU ≈ `threads × jobs`. The
    /// default keeps the engine serial, because the instance-level
    /// fan-out already saturates the machine on full table runs; raise
    /// it when analyzing few (or very hard) instances.
    pub jobs: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 42,
            scale: 0.05,
            per_check: Duration::from_millis(200),
            k_max: 8,
            vc_budget: 2_000_000,
            ghd_timeout: Duration::from_millis(400),
            threads: 0,
            jobs: 1,
        }
    }
}

impl ExperimentConfig {
    fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig {
            per_check: self.per_check,
            k_max: self.k_max,
            vc_budget: self.vc_budget,
            jobs: self.jobs,
        }
    }

    /// Number of worker threads to use (resolves 0 to the core count).
    pub fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

/// One instance plus its analysis record.
#[derive(Debug, Clone)]
pub struct AnalyzedInstance {
    /// The generated instance.
    pub instance: Instance,
    /// Its analysis.
    pub record: AnalysisRecord,
}

/// The generated benchmark with the shared analysis pass applied.
#[derive(Debug)]
pub struct AnalyzedBenchmark {
    /// Configuration used.
    pub config: ExperimentConfig,
    /// Analyzed instances.
    pub instances: Vec<AnalyzedInstance>,
}

/// Generates and analyzes the benchmark (parallel across instances).
pub fn analyze_benchmark(config: &ExperimentConfig) -> AnalyzedBenchmark {
    let instances = generate_benchmark(config.seed, config.scale);
    let records = parallel_analyze(&instances, config);
    AnalyzedBenchmark {
        config: config.clone(),
        instances: instances
            .into_iter()
            .zip(records)
            .map(|(instance, record)| AnalyzedInstance { instance, record })
            .collect(),
    }
}

fn parallel_analyze(instances: &[Instance], config: &ExperimentConfig) -> Vec<AnalysisRecord> {
    let acfg = config.analysis_config();
    let n = instances.len();
    let next = AtomicUsize::new(0);
    let workers = config.worker_count().min(n.max(1));
    let (tx, rx) = std::sync::mpsc::channel::<(usize, AnalysisRecord)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let acfg = &acfg;
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let rec = analyze_instance(&instances[i].hypergraph, acfg);
                tx.send((i, rec)).expect("collector alive");
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<AnalysisRecord>> = vec![None; n];
    for (i, rec) in rx {
        slots[i] = Some(rec);
    }
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// Runs `jobs` items through `work` on the harness thread pool, preserving
/// order. Used by the GHD/FHD experiments (Tables 3–6).
pub fn parallel_map<T, R, F>(jobs: &[T], threads: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let workers = threads.max(1).min(n);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let work = &work;
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                tx.send((i, work(&jobs[i]))).expect("collector alive");
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.004,
            per_check: Duration::from_millis(50),
            k_max: 4,
            vc_budget: 100_000,
            ghd_timeout: Duration::from_millis(100),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn analyze_benchmark_fills_all_records() {
        let b = analyze_benchmark(&tiny_config());
        assert!(!b.instances.is_empty());
        for a in &b.instances {
            assert_eq!(a.record.sizes.edges, a.instance.hypergraph.num_edges());
        }
    }

    #[test]
    fn deterministic_generation() {
        let b1 = analyze_benchmark(&tiny_config());
        let b2 = analyze_benchmark(&tiny_config());
        assert_eq!(b1.instances.len(), b2.instances.len());
        for (x, y) in b1.instances.iter().zip(b2.instances.iter()) {
            assert_eq!(x.record.sizes.edges, y.record.sizes.edges);
        }
    }
}
