//! `decomp`: the four `Check` algorithms run serially over the basket
//! at k = width and width − 1, `ImproveHD`, witness validation, and the
//! parallel engine against the serial one.

use std::hint::black_box;
use std::time::Duration;

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_decomp::driver::{check_ghd_opts, check_hd_opts, GhdAlgorithm, Outcome};
use hyperbench_decomp::improve::improve_hd;
use hyperbench_decomp::validate::validate_hd;
use hyperbench_decomp::{Budget, Decomposition, Options};

use super::{ms, own_counter, Probes};
use crate::basket::{BASKET, TIMEOUT_MS};

/// Runs `check` at k = `width` and `width − 1` and insists on a yes and
/// a no, so a search that stops deciding fails the probe instead of
/// reading as a speed-up.
fn pair(
    label: &str,
    width: usize,
    mut check: impl FnMut(usize) -> Outcome,
) -> Result<Decomposition, String> {
    if width > 1 && !matches!(check(width - 1), Outcome::No) {
        return Err(format!("{label}: k = {} was not refuted", width - 1));
    }
    match check(width) {
        Outcome::Yes(d) => Ok(d),
        other => Err(format!("{label}: k = {width} answered {}", other.label())),
    }
}

/// Returns the HD witness of every basket instance (the LP probe's
/// input).
pub fn run(p: &mut Probes<'_>) -> Result<Vec<Decomposition>, String> {
    let budget = || Budget::with_timeout(Duration::from_millis(TIMEOUT_MS / 4));
    let serial = Options::serial();
    let cfg = SubedgeConfig::default();
    let basket = std::rc::Rc::clone(&p.basket);

    let mut witnesses = Vec::with_capacity(basket.len());
    let tried = own_counter("hyperbench_decomp_separators_tried_total");
    let memo = own_counter("hyperbench_decomp_memo_hits_total");
    let mut failure = None;
    p.once("decomp.detk_ms", || {
        ms(|| {
            for (h, item) in basket.iter().zip(&BASKET) {
                match pair(&item.family.label(), item.hw, |k| {
                    check_hd_opts(h, k, &budget(), &serial)
                }) {
                    Ok(d) => witnesses.push(d),
                    Err(e) => failure = Some(e),
                }
            }
        })
    });
    if let Some(e) = failure {
        return Err(format!("decomp.detk_ms: {e}"));
    }
    for (metric, algo) in [
        ("decomp.balsep_ms", GhdAlgorithm::BalSep),
        ("decomp.localbip_ms", GhdAlgorithm::LocalBip),
        ("decomp.globalbip_ms", GhdAlgorithm::GlobalBip),
    ] {
        let mut failure = None;
        p.once(metric, || {
            ms(|| {
                let rows = basket.iter().zip(&BASKET);
                for (h, item) in rows.filter(|(_, item)| item.each_ghd_decides) {
                    if let Err(e) = pair(&item.family.label(), item.ghw, |k| {
                        check_ghd_opts(h, k, algo, &budget(), &cfg, &serial)
                    }) {
                        failure = Some(e);
                    }
                }
            })
        });
        if let Some(e) = failure {
            return Err(format!("{metric}: {e}"));
        }
    }

    // Registry deltas over the four serial passes: exact, because
    // nothing else in this process searches meanwhile.
    p.record(
        "decomp.separators_tried",
        own_counter("hyperbench_decomp_separators_tried_total") - tried,
    );
    p.record(
        "decomp.memo_hits",
        own_counter("hyperbench_decomp_memo_hits_total") - memo,
    );

    p.once("decomp.improve_hd_ms", || {
        ms(|| {
            for (h, d) in basket.iter().zip(&witnesses) {
                black_box(improve_hd(h, d).expect("cover LPs of a valid HD are feasible"));
            }
        })
    });
    for (h, d) in basket.iter().zip(&witnesses) {
        validate_hd(h, d).map_err(|e| format!("decomp.validate_us: {e}"))?;
    }
    let mut next = 0;
    p.time("decomp.validate_us", 1e3, || {
        let i = next % basket.len();
        black_box(validate_hd(&basket[i], &witnesses[i]).is_ok());
        next += 1;
    });

    // The heaviest third, serial against `jobs = 2`: what the solo
    // phase of `analyze` can gain from the second core.
    let mut heavy: Vec<usize> = (0..basket.len()).collect();
    heavy.sort_by_key(|&i| std::cmp::Reverse((BASKET[i].hw, basket[i].num_edges())));
    heavy.truncate(basket.len() / 3);
    let pass = |opts: &Options| {
        ms(|| {
            for &i in &heavy {
                for k in [BASKET[i].hw - 1, BASKET[i].hw] {
                    black_box(check_hd_opts(&basket[i], k, &budget(), opts));
                }
            }
        })
    };
    p.once("decomp.par_speedup", || {
        let serial_ms = pass(&serial);
        serial_ms / pass(&Options::with_jobs(2))
    });
    Ok(witnesses)
}
