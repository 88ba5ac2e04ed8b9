//! The §6.2 headline findings (Goal 2): how often is the hypertree width
//! small enough for efficient evaluation? Plus the hw gaps left open. The
//! hw search itself runs §6.4's gap-closing step — it asks the hybrid's
//! certified `Check(GHD,k)` before `Check(HD,k)` — so the row counts the
//! gaps left after it.

use hyperbench_datagen::BenchClass;

use crate::experiments::ExperimentReport;
use crate::report::{pct, Table};
use crate::AnalyzedBenchmark;

/// Regenerates the §6.2 / §7 "lessons learned" numbers.
pub fn run(bench: &AnalyzedBenchmark) -> ExperimentReport {
    let all = &bench.instances;
    let total = all.len();

    let count = |f: &dyn Fn(&crate::AnalyzedInstance) -> bool| all.iter().filter(|a| f(a)).count();

    let cq_app = count(&|a| a.instance.class == BenchClass::CqApplication);
    let cq_app_le3 = count(&|a| {
        a.instance.class == BenchClass::CqApplication
            && a.record.hw_upper.map(|u| u <= 3).unwrap_or(false)
    });
    let csp: usize = count(&|a| {
        matches!(
            a.instance.class,
            BenchClass::CspApplication | BenchClass::CspRandom | BenchClass::CspOther
        )
    });
    let csp_le5 = count(&|a| {
        matches!(
            a.instance.class,
            BenchClass::CspApplication | BenchClass::CspRandom | BenchClass::CspOther
        ) && a.record.hw_upper.map(|u| u <= 5).unwrap_or(false)
    });
    let csp_app = count(&|a| a.instance.class == BenchClass::CspApplication);
    let csp_app_le5 = count(&|a| {
        a.instance.class == BenchClass::CspApplication
            && a.record.hw_upper.map(|u| u <= 5).unwrap_or(false)
    });
    let all_le5 = count(&|a| a.record.hw_upper.map(|u| u <= 5).unwrap_or(false));
    let exact = count(&|a| a.record.hw_exact().is_some());

    let mut t = Table::new(&["finding", "paper", "measured"]);
    t.row(&[
        "non-random CQs with hw <= 3".to_string(),
        "100%".to_string(),
        pct(cq_app_le3, cq_app),
    ]);
    t.row(&[
        "CSP Application with hw <= 5".to_string(),
        "over 60%".to_string(),
        pct(csp_app_le5, csp_app),
    ]);
    t.row(&[
        "all CSPs with hw <= 5".to_string(),
        "ca. 50%".to_string(),
        pct(csp_le5, csp),
    ]);
    t.row(&[
        "all instances with hw <= 5".to_string(),
        "66.5%".to_string(),
        pct(all_le5, total),
    ]);
    t.row(&[
        "instances with exact hw determined".to_string(),
        "64.5%".to_string(),
        pct(exact, total),
    ]);

    // §6.4: the paper closed 297 of its 827 open gaps with GHD no's.
    let gaps = count(&|a| a.record.hw_upper.is_some_and(|u| a.record.hw_lower < u));
    t.row(&[
        "open hw gaps left after the search".to_string(),
        "530".to_string(),
        gaps.to_string(),
    ]);

    ExperimentReport {
        id: "summary",
        title: "Headline findings (Goal 2, §6.2 / §7)".to_string(),
        body: t.render(),
        checkpoints: vec![(
            "hw is small enough for efficient evaluation on a big share of instances".into(),
            "yes".into(),
            format!("{} of {} instances have hw ≤ 5", all_le5, total),
        )],
    }
}
