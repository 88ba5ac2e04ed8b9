//! `router`: the k-way merge of one scatter round.

use std::hint::black_box;

use hyperbench_api::{PageCursor, ShardSlot};
use hyperbench_router::{merge_pages, ShardPage};

use super::Probes;

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    // Two full shard pages of 100 rows, as a `limit=100` scatter fetches.
    let page = |_shard: usize| ShardPage {
        items: (0..100).map(|local| (local, local as u64)).collect(),
        next: Some(PageCursor::after(99)),
        total: 1000,
    };
    let slots = [ShardSlot::Start, ShardSlot::Start];
    p.time("router.merge_pages_us", 1e3, || {
        black_box(merge_pages(vec![Some(page(0)), Some(page(1))], &slots, 100));
    });
    Ok(())
}
