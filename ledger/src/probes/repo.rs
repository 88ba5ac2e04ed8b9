//! `repo`: pack open and hydration, keyset scans, and the write path —
//! WAL commit with fsync, checkpoint, recovery — on a private copy of
//! the workload's own pack.

use std::hint::black_box;
use std::time::Instant;

use hyperbench_core::format::{parse_hg, to_hg};
use hyperbench_repo::store::mvcc::{MvccOptions, MvccStore};
use hyperbench_repo::store::spill::{SpillRecord, SpillWriter};
use hyperbench_repo::{analyze_instance, AnalysisConfig, Filter, Repository};

use super::{ms, own_counter, Probes};
use crate::workloads::serve_write::document;

/// Documents committed before, and again after, the probed checkpoint.
const COMMITS: u64 = 200;

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    let pack = p.inputs.pack.clone();
    let open = |path: &std::path::Path| Repository::open_pack(path).map_err(|e| e.to_string());
    open(&pack)?;
    p.time("repo.open_pack_ms", 1e6, || {
        black_box(Repository::open_pack(&pack).expect("opened above"));
    });

    let repo = open(&pack)?;
    let ids: Vec<usize> = repo.metas().map(|m| m.id).collect();
    let hydrations = own_counter("hyperbench_pack_page_hydrations_total");
    let mut failure = None;
    p.once("repo.hydrate_us", || {
        let start = Instant::now();
        for &id in &ids {
            if let Err(e) = repo.try_get(id) {
                failure = Some(e.to_string());
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / ids.len() as f64
    });
    if let Some(e) = failure {
        return Err(format!("repo.hydrate_us: {e}"));
    }
    p.record(
        "repo.page_hydrations",
        own_counter("hyperbench_pack_page_hydrations_total") - hydrations,
    );
    let mut next = 0;
    p.time("repo.get_warm_ns", 1.0, || {
        black_box(repo.try_get(ids[next % ids.len()]).is_ok());
        next += 1;
    });
    let filter = Filter::new().class("CQ Random");
    p.time("repo.select_after_us", 1e3, || {
        black_box(repo.try_select_after(&filter, None, 100).is_ok());
    });
    let user_bytes: usize = ids
        .iter()
        .map(|&id| to_hg(&repo.entry(id).hypergraph).len())
        .sum();
    let pack_bytes = std::fs::metadata(&pack).map_err(|e| e.to_string())?.len();
    p.record(
        "repo.pack_bytes_per_user_byte",
        pack_bytes as f64 / user_bytes as f64,
    );
    drop(repo);

    // The write path, on a copy so the served pack stays as it is.
    let copy = p.inputs.scratch.join("probe.pack");
    let wal = p.inputs.scratch.join("probe.wal");
    std::fs::copy(&pack, &copy).map_err(|e| format!("{}: {e}", copy.display()))?;
    let options = |checkpoint_on_open: bool| MvccOptions {
        // No background checkpoint: the probe runs its own.
        overlay_limit: usize::MAX,
        checkpoint_on_open,
        ..MvccOptions::new(wal.clone(), Some(copy.clone()))
    };
    let store = MvccStore::open(open(&copy)?, options(true)).map_err(|e| e.to_string())?;
    let seed = p.inputs.seed;
    let commit = |from: u64| -> Result<(f64, usize), String> {
        let mut bytes = 0;
        let start = Instant::now();
        for serial in from..from + COMMITS {
            // Serials far above any the workload's writer reaches.
            let doc = document(seed, 1_000_000 + serial);
            bytes += doc.len();
            let h = parse_hg(&doc).map_err(|e| e.to_string())?;
            store
                .insert(h, "uploads", "Uploaded")
                .map_err(|e| e.to_string())?;
        }
        Ok((start.elapsed().as_secs_f64() * 1e6 / COMMITS as f64, bytes))
    };
    let appends = own_counter("hyperbench_wal_appends_total");
    let fsyncs = own_counter("hyperbench_wal_fsyncs_total");
    let wal_bytes = own_counter("hyperbench_wal_append_bytes_total");
    let mut committed = Err("not run".to_string());
    p.once("repo.commit_us", || {
        committed = commit(0);
        committed.as_ref().map_or(0.0, |(us, _)| *us)
    });
    let (_, doc_bytes) = committed.map_err(|e| format!("repo.commit_us: {e}"))?;
    let appended = own_counter("hyperbench_wal_appends_total") - appends;
    p.record(
        "repo.fsyncs_per_write",
        (own_counter("hyperbench_wal_fsyncs_total") - fsyncs) / appended.max(1.0),
    );
    p.record(
        "repo.wal_bytes_per_user_byte",
        (own_counter("hyperbench_wal_append_bytes_total") - wal_bytes) / doc_bytes as f64,
    );
    let mut checkpointed = Ok(false);
    p.once("repo.checkpoint_ms", || {
        ms(|| checkpointed = store.checkpoint_now())
    });
    if !checkpointed.map_err(|e| format!("repo.checkpoint_ms: {e}"))? {
        return Err("repo.checkpoint_ms: the checkpoint had nothing to fold".to_string());
    }
    // A second batch stays in the log for the recovery to replay.
    commit(COMMITS)?;
    drop(store);
    let mut reopened = None;
    p.once("repo.recover_ms", || {
        ms(|| {
            reopened =
                Some(open(&copy).and_then(|base| {
                    MvccStore::open(base, options(false)).map_err(|e| e.to_string())
                }))
        })
    });
    let recovered = reopened
        .expect("set above")
        .map_err(|e| format!("repo.recover_ms: {e}"))?;
    if recovered.snapshot().len() != ids.len() + 2 * COMMITS as usize {
        return Err("repo.recover_ms: recovered store lost commits".to_string());
    }
    drop(recovered);

    let spill = p.inputs.scratch.join("probe.spill");
    let mut writer = SpillWriter::open_append(&spill).map_err(|e| e.to_string())?;
    let h = &p.basket[0];
    let record = SpillRecord {
        hash: 1,
        keyed: format!("hd:8:8000\n{}", to_hg(h)),
        method: "hd".to_string(),
        hg_text: to_hg(h),
        record: analyze_instance(h, &AnalysisConfig::default()),
        witness_json: None,
        fractional_width: None,
    };
    let mut failed = false;
    p.time("repo.spill_append_us", 1e3, || {
        failed |= writer.append(&record).is_err();
    });
    if failed {
        return Err("repo.spill_append_us: an append failed".to_string());
    }
    Ok(())
}
