//! The engine counters the ledger reports as `decomp.separators_tried`
//! and `decomp.memo_hits` are alive, and mean what they say: a serial
//! search has nobody to steal from, a parallel one shares its memo. The
//! counters are process-global, so this file holds the one test of its
//! process.

use hyperbench_core::HypergraphBuilder;
use hyperbench_decomp::balsep::{decompose_balsep_opts, BalsepConfig};
use hyperbench_decomp::budget::Budget;
use hyperbench_decomp::detk::SearchResult;
use hyperbench_decomp::metrics::metrics;
use hyperbench_decomp::parallel::Options;

#[test]
fn serial_searches_never_steal_and_parallel_ones_share_the_memo() {
    // The 4x4 grid has ghw 3: `Check(GHD,2)` is an exhaustive "no".
    let mut b = HypergraphBuilder::new();
    for i in 0..4 {
        for j in 0..3 {
            b.add_edge(
                &format!("h{i}_{j}"),
                &[format!("v{i}_{j}"), format!("v{i}_{}", j + 1)],
            );
            b.add_edge(
                &format!("w{j}_{i}"),
                &[format!("v{j}_{i}"), format!("v{}_{i}", j + 1)],
            );
        }
    }
    let h = b.build();
    let m = metrics();
    let check = |opts: &Options| {
        decompose_balsep_opts(&h, 2, &Budget::unlimited(), &BalsepConfig::default(), opts)
    };
    let counters = || (m.steals.get(), m.memo_hits.get(), m.separators_tried.get());

    let (steals, _, tried) = counters();
    let serial = check(&Options::serial());
    assert!(matches!(serial, SearchResult::NotFound), "{serial:?}");
    let (steals_after, hits, tried_after) = counters();
    assert_eq!(steals_after - steals, 0, "a serial search stole work");
    assert!(tried_after > tried, "a search that tried no separator");

    let parallel = check(&Options::with_jobs(2));
    assert!(matches!(parallel, SearchResult::NotFound), "{parallel:?}");
    let (_, hits_after, _) = counters();
    assert!(hits_after > hits, "the parallel search never hit its memo");
}
