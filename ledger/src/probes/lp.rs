//! `lp`: the fractional edge cover LP `ImproveHD` solves per bag.

use std::hint::black_box;

use hyperbench_core::BitSet;
use hyperbench_decomp::Decomposition;
use hyperbench_lp::cover::fractional_edge_cover;

use super::Probes;

pub fn run(p: &mut Probes<'_>, witnesses: &[Decomposition]) -> Result<(), String> {
    let basket = std::rc::Rc::clone(&p.basket);
    let bags: Vec<(usize, &BitSet)> = witnesses
        .iter()
        .enumerate()
        .flat_map(|(i, d)| d.nodes().iter().map(move |node| (i, &node.bag)))
        .collect();
    if bags.is_empty() {
        return Err("lp.cover_us: no witness bags".to_string());
    }
    let mut next = 0;
    p.time("lp.cover_us", 1e3, || {
        let (i, bag) = bags[next % bags.len()];
        black_box(fractional_edge_cover(&basket[i], bag).expect("bags of an HD are coverable"));
        next += 1;
    });
    Ok(())
}
