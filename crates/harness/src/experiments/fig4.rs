//! Figure 4: the hw analysis — per class and per `k`, how many instances
//! answered yes / no / timeout, with average runtimes. A step's runtime
//! includes the hybrid `Check(GHD,k)` the hw search asks before detk.

use std::collections::BTreeMap;
use std::time::Duration;

use hyperbench_datagen::BenchClass;

use crate::experiments::ExperimentReport;
use crate::report::{fmt_avg, Table};
use crate::AnalyzedBenchmark;

#[derive(Default, Clone)]
struct Cell {
    yes: usize,
    yes_time: Duration,
    no: usize,
    no_time: Duration,
    timeout: usize,
}

/// Regenerates Figure 4 (as one table per class).
pub fn run(bench: &AnalyzedBenchmark) -> ExperimentReport {
    let mut body = String::new();
    let mut nonrandom_cq_hw_gt3 = 0usize;

    for class in BenchClass::ALL {
        let mut per_k: BTreeMap<usize, Cell> = BTreeMap::new();
        let mut n = 0usize;
        for a in bench.instances.iter().filter(|a| a.instance.class == class) {
            n += 1;
            for (k, label, elapsed) in &a.record.hw_steps {
                let cell = per_k.entry(*k).or_default();
                match *label {
                    "yes" => {
                        cell.yes += 1;
                        cell.yes_time += *elapsed;
                    }
                    "no" => {
                        cell.no += 1;
                        cell.no_time += *elapsed;
                    }
                    _ => cell.timeout += 1,
                }
            }
            if class == BenchClass::CqApplication
                && a.record.hw_upper.map(|u| u > 3).unwrap_or(true)
            {
                nonrandom_cq_hw_gt3 += 1;
            }
        }
        if n == 0 {
            continue;
        }
        body.push_str(&format!("### {} ({} instances)\n\n", class.name(), n));
        let mut t = Table::new(&["k", "yes", "avg(yes)", "no", "avg(no)", "timeout"]);
        for (k, c) in &per_k {
            t.row(&[
                k.to_string(),
                c.yes.to_string(),
                fmt_avg(c.yes_time, c.yes),
                c.no.to_string(),
                fmt_avg(c.no_time, c.no),
                c.timeout.to_string(),
            ]);
        }
        body.push_str(&t.render());
        body.push('\n');
    }

    ExperimentReport {
        id: "fig4",
        title: "HW analysis (yes/no/timeout per k, avg runtimes)".to_string(),
        body,
        checkpoints: vec![(
            "non-random CQs with hw > 3 (incl. unresolved)".into(),
            "0 (all non-random CQs have hw ≤ 3)".into(),
            nonrandom_cq_hw_gt3.to_string(),
        )],
    }
}
