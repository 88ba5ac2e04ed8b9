//! `core`: `.hg` parsing and the structural properties every analysis
//! starts with.

use std::hint::black_box;

use hyperbench_core::format::{parse_hg, to_hg};
use hyperbench_core::properties::structural_properties;

use super::Probes;

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    // What the server parses: uploaded documents (`serve_write`) and
    // submitted basket instances (`analyze`).
    let mut texts = p.uploads.to_vec();
    texts.extend(p.basket.iter().map(to_hg));
    for text in &texts {
        parse_hg(text).map_err(|e| format!("core.parse_hg_us input: {e}"))?;
    }
    let mut next = 0;
    p.time("core.parse_hg_us", 1e3, || {
        black_box(parse_hg(&texts[next % texts.len()]).expect("parsed above"));
        next += 1;
    });

    let basket = std::rc::Rc::clone(&p.basket);
    let mut next = 0;
    p.time("core.properties_us", 1e3, || {
        // The budget `serve` analyzes with.
        black_box(structural_properties(
            &basket[next % basket.len()],
            2_000_000,
        ));
        next += 1;
    });
    Ok(())
}
