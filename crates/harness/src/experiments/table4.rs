//! Table 4: the first-of-three race — for hypergraphs with hw ≤ k
//! (k ∈ {3..6}), run all three GHD algorithms in parallel on
//! `Check(GHD,k−1)` and take the first definitive answer. Beside it, the
//! hybrid that decides `Check(GHD,k)` in the ghw search answers the same
//! checks alone, so the two can be compared row by row. The hybrid runs
//! in a pass of its own after the race's, one instance per pool thread
//! (the race takes three threads per instance), so the two columns of
//! times come from different loads on the machine.

use std::time::{Duration, Instant};

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::driver::{check_ghd_hybrid_opts, race_ghd_opts, HYBRID_SWITCH_DEPTH};

use crate::experiments::table3::group_hw;
use crate::experiments::ExperimentReport;
use crate::report::{fmt_avg, Table};
use crate::{parallel_map, AnalyzedBenchmark};

const HEADER: [&str; 6] = ["hw -> ghw", "yes", "avg(yes)", "no", "avg(no)", "timeout"];

/// Yes/no/timeout counts and times of one group of checks.
#[derive(Default)]
struct Tally {
    yes: usize,
    yes_t: Duration,
    no: usize,
    no_t: Duration,
    timeout: usize,
}

impl Tally {
    fn of(results: Vec<(&'static str, Duration)>) -> Tally {
        let mut t = Tally::default();
        for (label, elapsed) in results {
            match label {
                "yes" => {
                    t.yes += 1;
                    t.yes_t += elapsed;
                }
                "no" => {
                    t.no += 1;
                    t.no_t += elapsed;
                }
                _ => t.timeout += 1,
            }
        }
        t
    }

    fn row(&self, k: usize) -> [String; 6] {
        [
            format!("{k} -> {}", k - 1),
            self.yes.to_string(),
            fmt_avg(self.yes_t, self.yes),
            self.no.to_string(),
            fmt_avg(self.no_t, self.no),
            self.timeout.to_string(),
        ]
    }
}

/// Regenerates Table 4.
pub fn run(bench: &AnalyzedBenchmark) -> ExperimentReport {
    let timeout = bench.config.ghd_timeout;
    // The race itself runs three threads per instance; divide the pool.
    let threads = (bench.config.worker_count() / 3).max(1);
    let cfg = SubedgeConfig::default();
    let opts = hyperbench_decomp::Options::with_jobs(bench.config.jobs);

    let mut race = Table::new(&HEADER);
    let mut hybrid = Table::new(&HEADER);
    let mut decided = 0usize;
    let mut identical = 0usize; // no-answers: ghw = hw certified

    for k in 3..=6usize {
        let group = group_hw(bench, k);
        if group.is_empty() {
            continue;
        }
        let raced = Tally::of(parallel_map(&group, threads, |a| {
            let r = race_ghd_opts(&a.instance.hypergraph, k - 1, timeout, &cfg, &opts);
            (r.outcome.label(), r.elapsed)
        }));
        decided += raced.yes + raced.no;
        identical += raced.no;
        race.row(&raced.row(k));

        let alone = Tally::of(parallel_map(&group, bench.config.worker_count(), |a| {
            let start = Instant::now();
            let budget = Budget::with_timeout(timeout);
            let h = &a.instance.hypergraph;
            let out = check_ghd_hybrid_opts(h, k - 1, HYBRID_SWITCH_DEPTH, &budget, &cfg, &opts);
            (out.label(), start.elapsed())
        }));
        hybrid.row(&alone.row(k));
    }

    let body = if race.is_empty() {
        "No instances with hw in 3..=6 at this scale; increase --scale.\n".to_string()
    } else {
        format!(
            "First-of-three race (GlobalBIP, LocalBIP, BalSep):\n\n{}\n\
             Hybrid alone (BalSep to switch depth {HYBRID_SWITCH_DEPTH}, then detk):\n\n{}",
            race.render(),
            hybrid.render()
        )
    };

    ExperimentReport {
        id: "table4",
        title: "GHW of instances (first-of-three race, and the hybrid alone)".to_string(),
        body,
        checkpoints: vec![(
            "hw = ghw among solved cases".into(),
            "97% (in the vast majority no improvement is possible)".into(),
            crate::report::pct(identical, decided),
        )],
    }
}
