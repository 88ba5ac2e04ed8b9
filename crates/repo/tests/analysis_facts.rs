//! Order independence of shared analysis facts.
//!
//! hd, ghd and fhd run through one [`InstanceFacts`] record in each of
//! the six orders. Whatever ran before, every method must answer what it
//! answers alone — the same bounds, timeout flag, sizes and properties —
//! with a witness that validates, and it must run no `Check` it would not
//! run alone. Each row of the reuse table is asserted where it applies:
//!
//! | method | facts present | checks run                         |
//! |--------|---------------|------------------------------------|
//! | hd     | hw            | none                               |
//! | hd     | ghw = g       | from k = g on                      |
//! | ghd    | ghw           | none                               |
//! | ghd    | hw = h        | only k < h                         |
//! | fhd    | hw            | none (`ImproveHD` on the stored HD) |
//! | any    | none          | exactly the standalone ones        |

use std::time::Duration;

use hyperbench_api::AnalyzeMethod;
use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_core::{Hypergraph, HypergraphBuilder};
use hyperbench_datagen::cspother::{circuit, pebbling_grid};
use hyperbench_datagen::graphgen::cyclic_graph_query;
use hyperbench_decomp::validate::{validate_ghd, validate_hd};
use hyperbench_repo::{
    analyze_instance_retaining, analyze_with_facts, AnalysisConfig, AnalyzedInstance, InstanceFacts,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const METHODS: [AnalyzeMethod; 3] = [AnalyzeMethod::Hd, AnalyzeMethod::Ghd, AnalyzeMethod::Fhd];

/// The six orders of the three methods.
fn orders() -> Vec<[AnalyzeMethod; 3]> {
    let mut out = Vec::new();
    for a in METHODS {
        for b in METHODS {
            for c in METHODS {
                if a != b && b != c && a != c {
                    out.push([a, b, c]);
                }
            }
        }
    }
    out
}

fn grid(r: usize, c: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::named(format!("grid {r}x{c}"));
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

fn clique(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::named(format!("clique {n}"));
    for i in 0..n {
        for j in i + 1..n {
            b.add_edge(&format!("e{i}_{j}"), &[format!("k{i}"), format!("k{j}")]);
        }
    }
    b.build()
}

fn instances() -> Vec<(String, Hypergraph)> {
    let mut rng = StdRng::seed_from_u64(27);
    vec![
        (
            "triangle".into(),
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]),
        ),
        (
            "path".into(),
            hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"]), ("g", &["c", "d"])]),
        ),
        ("grid 3x3".into(), grid(3, 3)),
        ("clique 5".into(), clique(5)),
        ("pebbling 3x3".into(), pebbling_grid("pebbling", 3, 3)),
        (
            "graph query".into(),
            cyclic_graph_query("query", 6, 2, 2, true, &mut rng),
        ),
        ("circuit".into(), circuit("circuit", 4, 6, &mut rng)),
    ]
}

/// Budgets under which every check on these instances decides.
fn config(jobs: usize) -> AnalysisConfig {
    AnalysisConfig {
        per_check: Duration::from_secs(60),
        k_max: 8,
        jobs,
        ..AnalysisConfig::default()
    }
}

fn checked_ks(a: &AnalyzedInstance) -> Vec<usize> {
    a.record.hw_steps.iter().map(|s| s.0).collect()
}

/// Parses the wire spelling of a fractional width (`"3/2"` or `"2"`).
fn rational(text: &str) -> f64 {
    match text.split_once('/') {
        Some((n, d)) => n.parse::<f64>().unwrap() / d.parse::<f64>().unwrap(),
        None => text.parse().unwrap(),
    }
}

/// The answer matches the standalone one, its witness validates, and
/// it ran no check the standalone run did not.
fn assert_same_answer(
    what: &str,
    h: &Hypergraph,
    method: AnalyzeMethod,
    got: &AnalyzedInstance,
    alone: &AnalyzedInstance,
) {
    let (g, a) = (&got.record, &alone.record);
    assert!(!a.hw_timed_out, "{what}: the standalone run must decide");
    assert_eq!(g.hw_lower, a.hw_lower, "{what}: hw_lower");
    assert_eq!(g.hw_upper, a.hw_upper, "{what}: hw_upper");
    assert_eq!(g.hw_timed_out, a.hw_timed_out, "{what}: hw_timed_out");
    assert_eq!(g.sizes, a.sizes, "{what}: sizes");
    assert_eq!(g.properties, a.properties, "{what}: properties");
    let ran = checked_ks(got);
    let alone_ran = checked_ks(alone);
    assert!(
        ran.iter().all(|k| alone_ran.contains(k)),
        "{what}: checked {ran:?}, alone only {alone_ran:?}"
    );

    let witness = got
        .witness
        .as_ref()
        .expect("a decided search has a witness");
    let bound = g.hw_upper.expect("decided");
    assert!(
        witness.width() <= bound,
        "{what}: witness wider than {bound}"
    );
    match method {
        AnalyzeMethod::Ghd => validate_ghd(h, witness),
        AnalyzeMethod::Hd | AnalyzeMethod::Fhd => validate_hd(h, witness),
    }
    .unwrap_or_else(|e| panic!("{what}: witness invalid: {e}"));
    match method {
        AnalyzeMethod::Fhd => {
            let fw = got.fractional_width.as_deref().expect("fhd reports fhw");
            assert!(
                rational(fw) <= witness.width() as f64 + 1e-9,
                "{what}: fractional width {fw} above the HD's {}",
                witness.width()
            );
        }
        _ => assert!(got.fractional_width.is_none(), "{what}"),
    }
}

/// The reuse table's row for `method` given what the facts held before.
fn assert_reuse_row(
    what: &str,
    method: AnalyzeMethod,
    hw: Option<usize>,
    ghw: Option<usize>,
    got: &AnalyzedInstance,
    alone: &AnalyzedInstance,
) {
    let ran = checked_ks(got);
    match (method, hw, ghw) {
        (AnalyzeMethod::Hd | AnalyzeMethod::Fhd, Some(_), _) => {
            assert!(ran.is_empty(), "{what}: hw known, yet checked {ran:?}")
        }
        (AnalyzeMethod::Hd | AnalyzeMethod::Fhd, None, Some(g)) => {
            assert_eq!(ran.first(), Some(&g), "{what}: must start at ghw = {g}")
        }
        (AnalyzeMethod::Ghd, _, Some(_)) => {
            assert!(ran.is_empty(), "{what}: ghw known, yet checked {ran:?}")
        }
        (AnalyzeMethod::Ghd, Some(h), None) => {
            assert!(
                ran.iter().all(|&k| k < h),
                "{what}: checked {ran:?} at hw {h}"
            )
        }
        (_, None, None) => assert_eq!(ran, checked_ks(alone), "{what}: nothing to reuse"),
    }
}

#[test]
fn every_order_answers_what_each_method_answers_alone() {
    for jobs in [1, 2] {
        let cfg = config(jobs);
        for (name, h) in instances() {
            let alone: Vec<AnalyzedInstance> = METHODS
                .iter()
                .map(|&m| analyze_instance_retaining(&h, &cfg, m))
                .collect();
            for order in orders() {
                let mut facts = InstanceFacts::new();
                for method in order {
                    let what = format!(
                        "{name} jobs={jobs} order={:?} {}",
                        order.map(|m| m.as_str()),
                        method.as_str()
                    );
                    let (hw, ghw) = (facts.hw(), facts.ghw());
                    let got = analyze_with_facts(&h, &cfg, method, &mut facts);
                    let standalone = &alone[METHODS.iter().position(|&m| m == method).unwrap()];
                    assert_same_answer(&what, &h, method, &got, standalone);
                    assert_reuse_row(&what, method, hw, ghw, &got, standalone);
                }
                // Every method decided, so both widths are now facts.
                assert_eq!(facts.hw(), alone[0].record.hw_exact(), "{name}");
                assert_eq!(facts.ghw(), alone[1].record.hw_exact(), "{name}");
            }
        }
    }
}

#[test]
fn fhd_after_hd_runs_no_check() {
    let h = clique(5);
    let cfg = config(1);
    let mut facts = InstanceFacts::new();
    let hd = analyze_with_facts(&h, &cfg, AnalyzeMethod::Hd, &mut facts);
    assert_eq!(facts.hw(), Some(3));
    let fhd = analyze_with_facts(&h, &cfg, AnalyzeMethod::Fhd, &mut facts);
    assert!(fhd.record.hw_steps.is_empty());
    assert_eq!(fhd.record.hw_exact(), Some(3));
    // The stored HD is the one improved.
    let (a, b) = (hd.witness.unwrap(), fhd.witness.unwrap());
    assert_eq!(a.len(), b.len());
    assert_eq!(a.width(), b.width());
}

#[test]
fn a_search_below_the_width_writes_no_width_fact() {
    let tri = hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
    let low = AnalysisConfig {
        k_max: 1,
        ..config(1)
    };
    let mut facts = InstanceFacts::new();
    for method in METHODS {
        let got = analyze_with_facts(&tri, &low, method, &mut facts);
        assert_eq!((got.record.hw_lower, got.record.hw_upper), (2, None));
    }
    assert_eq!((facts.hw(), facts.ghw()), (None, None));
    assert!(!facts.is_empty(), "sizes and properties are still facts");

    // Facts proved under a larger k_max are ignored by a request whose
    // k_max is below them: it answers what it answers alone.
    for method in METHODS {
        analyze_with_facts(&tri, &config(1), method, &mut facts);
    }
    assert_eq!((facts.hw(), facts.ghw()), (Some(2), Some(2)));
    for method in METHODS {
        let got = analyze_with_facts(&tri, &low, method, &mut facts);
        let alone = analyze_instance_retaining(&tri, &low, method);
        assert_eq!(got.record.hw_lower, alone.record.hw_lower);
        assert_eq!(got.record.hw_upper, alone.record.hw_upper);
        assert_eq!(checked_ks(&got), checked_ks(&alone));
    }
}
