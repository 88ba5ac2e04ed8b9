//! Cross-algorithm agreement, property-based: on random small
//! hypergraphs, the HD search, all three GHD algorithms and the ghw
//! search behind `method=ghd` analyses must produce mutually consistent,
//! machine-validated answers, and the width hierarchy fhw ≤ ghw ≤ hw
//! must hold.

use std::time::Duration;

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::Hypergraph;
use hyperbench_decomp::balsep::{decompose_balsep, decompose_hybrid, BalsepConfig};
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::detk::{decompose_hd, decompose_localbip, SearchResult};
use hyperbench_decomp::driver::{
    generalized_hypertree_width_opts, HwResult, Outcome, HYBRID_SWITCH_DEPTH,
};
use hyperbench_decomp::globalbip::decompose_globalbip;
use hyperbench_decomp::improve::improve_hd;
use hyperbench_decomp::validate::{validate_ghd, validate_ghd_with_width, validate_hd};
use hyperbench_decomp::Options;
use hyperbench_integration_tests::strategies::hypergraph_from_shape;
use hyperbench_lp::Rational;
use proptest::prelude::*;

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    // Up to 6 edges over up to 7 vertices, arity ≤ 4.
    prop::collection::vec(prop::collection::vec(0u8..7, 1..=4), 1..=6)
        .prop_map(|shape| hypergraph_from_shape(&shape))
}

fn ghd_answer(r: &SearchResult) -> Option<bool> {
    match r {
        SearchResult::Found(_) => Some(true),
        SearchResult::NotFound => Some(false),
        _ => None,
    }
}

/// What a ghw search's bounds say about `Check(GHD,k)`: yes at or above
/// its upper bound, no below its lower bound, nothing in between.
fn search_answer(r: &HwResult, k: usize) -> Option<bool> {
    match r.upper {
        Some(u) if u <= k => Some(true),
        _ if k < r.lower => Some(false),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hd_answers_are_valid_and_monotone(h in small_hypergraph()) {
        let budget = Budget::unlimited();
        let mut prev_yes = false;
        for k in 1..=4usize {
            match decompose_hd(&h, k, &budget) {
                SearchResult::Found(d) => {
                    validate_hd(&h, &d).unwrap();
                    prop_assert!(d.width() <= k);
                    prev_yes = true;
                }
                SearchResult::NotFound => {
                    // Monotone: no at k after yes at k' < k is impossible.
                    prop_assert!(!prev_yes, "non-monotone HD answers at k={k}");
                }
                other => prop_assert!(false, "unbudgeted search stopped: {other:?}"),
            }
        }
    }

    #[test]
    fn ghd_algorithms_agree(h in small_hypergraph()) {
        let budget = Budget::unlimited();
        let cfg = SubedgeConfig::default();
        let bcfg = BalsepConfig::default();
        // The ghw search at one and two workers, each check far from
        // its deadline.
        let searches: Vec<HwResult> = [1, 2]
            .map(|jobs| {
                let opts = Options::with_jobs(jobs);
                generalized_hypertree_width_opts(&h, 3, Duration::from_secs(60), &cfg, &opts)
            })
            .into();
        for search in &searches {
            if let Some(Outcome::Yes(d)) = search.steps.last().map(|s| &s.outcome) {
                validate_ghd(&h, d).unwrap();
                prop_assert_eq!(Some(d.width()), search.upper);
            }
        }
        for k in 1..=3usize {
            let global = decompose_globalbip(&h, k, &budget, &cfg);
            let local = decompose_localbip(&h, k, &budget, &cfg);
            let bal = decompose_balsep(&h, k, &budget, &bcfg);
            let mut answers: Vec<Option<bool>> =
                vec![ghd_answer(&global), ghd_answer(&local), ghd_answer(&bal)];
            answers.extend(searches.iter().map(|s| search_answer(s, k)));
            // All decided answers must coincide.
            let decided: Vec<bool> = answers.iter().flatten().copied().collect();
            prop_assert!(!decided.is_empty(), "all three undecided without budget");
            prop_assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "disagreement at k={k}: {answers:?} on\n{h:?}"
            );
            for r in [global, local, bal] {
                if let SearchResult::Found(d) = r {
                    validate_ghd_with_width(&h, &d, k).unwrap();
                }
            }
        }
    }

    #[test]
    fn hybrid_agrees_with_balsep_at_every_depth(h in small_hypergraph()) {
        let budget = Budget::unlimited();
        let bcfg = BalsepConfig::default();
        for k in 1..=3usize {
            let reference = ghd_answer(&decompose_balsep(&h, k, &budget, &bcfg));
            for depth in [0usize, 1, 3] {
                let hybrid = ghd_answer(&decompose_hybrid(&h, k, &budget, &bcfg, depth));
                if let (Some(r), Some(x)) = (reference, hybrid) {
                    prop_assert_eq!(
                        r, x,
                        "hybrid(depth={}) disagrees with BalSep at k={} on\n{:?}",
                        depth, k, h
                    );
                }
                if let SearchResult::Found(d) =
                    decompose_hybrid(&h, k, &budget, &bcfg, depth)
                {
                    validate_ghd_with_width(&h, &d, k).unwrap();
                }
            }
        }
    }

    #[test]
    fn ghw_never_exceeds_hw(h in small_hypergraph()) {
        let budget = Budget::unlimited();
        let cfg = SubedgeConfig::default();
        for k in 1..=3usize {
            // If an HD of width k exists, a GHD of width k must exist too.
            if let SearchResult::Found(_) = decompose_hd(&h, k, &budget) {
                let g = decompose_localbip(&h, k, &budget, &cfg);
                prop_assert!(
                    matches!(g, SearchResult::Found(_)),
                    "hw ≤ {k} but LocalBIP says ghw > {k}"
                );
                break;
            }
        }
    }

    #[test]
    fn fractional_width_never_exceeds_integral(h in small_hypergraph()) {
        let budget = Budget::unlimited();
        for k in 1..=4usize {
            if let SearchResult::Found(d) = decompose_hd(&h, k, &budget) {
                let fd = improve_hd(&h, &d).unwrap();
                let w = Rational::from_int(d.width() as i64);
                prop_assert!(
                    fd.fractional_width() <= w,
                    "fhw {} > integral {}",
                    fd.fractional_width(),
                    d.width()
                );
                prop_assert!(fd.fractional_width() >= Rational::ONE || h.num_edges() == 0);
                break;
            }
        }
    }
}

#[test]
fn known_ghw_less_than_hw_instance() {
    // The classic example where ghw < hw: H0 from Adler/GLS-style
    // constructions. Take the hypergraph with edges
    //   e1={a,b,c}, e2={c,d}, e3={d,e}, e4={e,a}, e5={b,d}
    // detk (HD) may need width 3 while a GHD of width 2 exists… verify at
    // least that all algorithms agree with each other on every k.
    let h = hypergraph_from_shape(&[
        vec![0, 1, 2],
        vec![2, 3],
        vec![3, 4],
        vec![4, 0],
        vec![1, 3],
    ]);
    let budget = Budget::unlimited();
    let cfg = SubedgeConfig::default();
    for k in 1..=3 {
        let g = ghd_answer(&decompose_globalbip(&h, k, &budget, &cfg));
        let l = ghd_answer(&decompose_localbip(&h, k, &budget, &cfg));
        let b = ghd_answer(&decompose_balsep(&h, k, &budget, &BalsepConfig::default()));
        assert_eq!(g, l, "k={k}");
        assert_eq!(l, b, "k={k}");
    }
}

#[test]
fn hybrid_finds_a_full_edge_decomposition_of_a_component() {
    // random/q3 of the scale-0.05 corpus has hw ≤ 4 (detk answers
    // Check(HD,4) yes at once). Below the hybrid's root separator, detk
    // with local subedges reaches a 7-edge component with a 33-vertex
    // connector and 125 846 subedge atoms, whose combinations it cannot
    // walk in this budget; the hybrid's full-edge pass decomposes the
    // component without them.
    let corpus = hyperbench_datagen::generate_benchmark(1, 0.05);
    let h = &corpus
        .iter()
        .find(|i| i.hypergraph.name() == "random/q3")
        .expect("random/q3 in the corpus")
        .hypergraph;
    assert_eq!(
        (h.num_vertices(), h.num_edges()),
        (43, 22),
        "the generator changed"
    );
    let budget = Budget::with_timeout(Duration::from_secs(10));
    let r = decompose_hybrid(h, 4, &budget, &BalsepConfig::default(), HYBRID_SWITCH_DEPTH);
    match r {
        SearchResult::Found(d) => {
            validate_ghd(h, &d).unwrap();
            assert!(d.width() <= 4);
        }
        other => panic!("hybrid on random/q3 at k = 4: {other:?}"),
    }
}
