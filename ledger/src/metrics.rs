//! The ledger's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end number
//! each is predicted to move. `BENCHMARK.json` is printed from these
//! tables (`ledger manifest`), so the file and the code cannot drift.

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_read",
        why: "browse/filter/download mix on one server: server, api, query and repo reads work, \
              decomp, WAL and router idle; main = point reads, side = list/HBQL pages",
    },
    Workload {
        name: "routed_read",
        why: "same corpus on two shards behind the router: proxy/scatter and upstream pool do \
              most of the work; main = point reads, side = scatter pages",
    },
    Workload {
        name: "serve_write",
        why: "writer beside a reader on a 4x corpus: WAL fsync, MVCC commit and checkpoints work; \
              ops = acked writes, main = writes, side = point reads beside them",
    },
    Workload {
        name: "analyze",
        why: "fixed-width basket through the job queue: decomp, lp and the analysis cache work, \
              HTTP is noise; ops and main = cold analyses, side = solo jobs=2 analyses",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports all of them;
/// the workload's `why` says which op class `main` and `side` are.
/// Timing bounds are the contract's maximum: the sandbox's own A/A
/// noise reaches 20 % (see README.md, "Bounds").
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "main_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "main_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "side_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // Steady to 1–3 % on the read workloads; `serve_write`'s peak
        // moves 6–9 % with where its checkpoints fall in the window.
        bound: 0.20,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Single-layer numbers, measured from outside: in-process probes on
/// the workload's own inputs, `/metrics` deltas around the traced
/// phase, and `/proc`. A metric its workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 73] = [
    // The op-class latencies behind main/side, by their permanent names.
    layer(
        "point_p50_ms",
        "ms",
        Lower,
        "main_p50_ms @ serve_read, routed_read",
    ),
    layer(
        "point_p99_ms",
        "ms",
        Lower,
        "main_tail_ms @ serve_read, routed_read",
    ),
    layer(
        "page_p50_ms",
        "ms",
        Lower,
        "side_p50_ms @ serve_read, routed_read",
    ),
    layer(
        "page_p99_ms",
        "ms",
        Lower,
        "ops_per_s @ serve_read, routed_read",
    ),
    layer("write_p50_ms", "ms", Lower, "main_p50_ms @ serve_write"),
    layer("write_p99_ms", "ms", Lower, "main_tail_ms @ serve_write"),
    layer("analysis_p50_ms", "ms", Lower, "main_p50_ms @ analyze"),
    layer("analysis_solo_p50_ms", "ms", Lower, "side_p50_ms @ analyze"),
    layer(
        "analysis_hit_p50_ms",
        "ms",
        Lower,
        "cache lookups @ analyze (hit phase)",
    ),
    // core
    layer(
        "core.parse_hg_us",
        "us",
        Lower,
        "main_p50_ms @ serve_write; main_p50_ms @ analyze",
    ),
    layer("core.properties_us", "us", Lower, "main_p50_ms @ analyze"),
    // lp
    layer(
        "lp.cover_us",
        "us",
        Lower,
        "main_p50_ms (fhd ops) @ analyze",
    ),
    // decomp
    layer(
        "decomp.detk_ms",
        "ms",
        Lower,
        "ops_per_s, main_p50_ms @ analyze",
    ),
    layer(
        "decomp.balsep_ms",
        "ms",
        Lower,
        "ops_per_s, main_p50_ms (ghd ops) @ analyze",
    ),
    layer(
        "decomp.localbip_ms",
        "ms",
        Lower,
        "ops_per_s, main_p50_ms (ghd ops) @ analyze",
    ),
    layer(
        "decomp.globalbip_ms",
        "ms",
        Lower,
        "ops_per_s, main_p50_ms (ghd ops) @ analyze",
    ),
    layer(
        "decomp.improve_hd_ms",
        "ms",
        Lower,
        "main_p50_ms (fhd ops) @ analyze",
    ),
    layer("decomp.validate_us", "us", Lower, "main_p50_ms @ analyze"),
    layer("decomp.par_speedup", "x", Higher, "side_p50_ms @ analyze"),
    layer(
        "decomp.separators_tried",
        "count",
        Lower,
        "ops_per_s @ analyze",
    ),
    layer("decomp.memo_hits", "count", Higher, "ops_per_s @ analyze"),
    // api
    layer(
        "api.json_parse_us",
        "us",
        Lower,
        "main_p50_ms @ serve_write; side_p50_ms @ serve_read",
    ),
    layer(
        "api.detail_encode_us",
        "us",
        Lower,
        "main_p50_ms @ serve_read, routed_read",
    ),
    layer(
        "api.page_encode_us",
        "us",
        Lower,
        "side_p50_ms @ serve_read, routed_read",
    ),
    layer(
        "api.cursor_codec_ns",
        "ns",
        Lower,
        "side_p50_ms @ serve_read, routed_read",
    ),
    layer(
        "api.client_entry_us",
        "us",
        Lower,
        "reconnect-per-call cost vs main_p50_ms @ serve_read",
    ),
    // repo
    layer("repo.open_pack_ms", "ms", Lower, "setup_s @ serve_read"),
    layer("repo.hydrate_us", "us", Lower, "setup_s @ serve_read"),
    layer("repo.get_warm_ns", "ns", Lower, "main_p50_ms @ serve_read"),
    layer(
        "repo.select_after_us",
        "us",
        Lower,
        "side_p50_ms @ serve_read",
    ),
    layer(
        "repo.page_hydrations",
        "count",
        Lower,
        "setup_s @ serve_read",
    ),
    layer("repo.commit_us", "us", Lower, "main_p50_ms @ serve_write"),
    layer(
        "repo.fsyncs_per_write",
        "ratio",
        Lower,
        "main_p50_ms @ serve_write",
    ),
    layer(
        "repo.wal_bytes_per_user_byte",
        "ratio",
        Lower,
        "main_p50_ms @ serve_write",
    ),
    layer(
        "repo.checkpoint_ms",
        "ms",
        Lower,
        "ops_per_s, main_tail_ms @ serve_write",
    ),
    layer(
        "repo.checkpoints",
        "count",
        Lower,
        "ops_per_s @ serve_write",
    ),
    layer(
        "repo.write_stall_max_ms",
        "ms",
        Lower,
        "ops_per_s @ serve_write",
    ),
    layer(
        "repo.recover_ms",
        "ms",
        Lower,
        "server.restart_ready_ms @ serve_write",
    ),
    layer(
        "repo.pack_bytes_per_user_byte",
        "ratio",
        Lower,
        "setup_s, peak_rss_mb",
    ),
    layer("repo.spill_append_us", "us", Lower, "main_p50_ms @ analyze"),
    // query
    layer(
        "query.compile_us",
        "us",
        Lower,
        "side_p50_ms @ serve_read, serve_write",
    ),
    layer(
        "query.exec_rows_us",
        "us",
        Lower,
        "side_p50_ms @ serve_read, serve_write",
    ),
    layer(
        "query.exec_order_us",
        "us",
        Lower,
        "side_p50_ms @ serve_read",
    ),
    layer(
        "query.exec_groups_us",
        "us",
        Lower,
        "side_p50_ms @ serve_read",
    ),
    layer(
        "query.rows_scanned_per_row",
        "ratio",
        Lower,
        "side_p50_ms @ serve_read",
    ),
    layer(
        "query.rows_hydrated",
        "count",
        Lower,
        "must be 0: side_p50_ms @ serve_read",
    ),
    // server
    layer(
        "server.http_parse_ns",
        "ns",
        Lower,
        "main_p50_ms, cpu_ms_per_op @ serve_read",
    ),
    layer(
        "server.serialize_ns",
        "ns",
        Lower,
        "main_p50_ms, cpu_ms_per_op @ serve_read",
    ),
    layer(
        "server.parse_us_mean",
        "us",
        Lower,
        "main_p50_ms @ serve_read",
    ),
    layer(
        "server.handle_us_mean",
        "us",
        Lower,
        "main_p50_ms, ops_per_s @ serve_read",
    ),
    layer(
        "server.serialize_us_mean",
        "us",
        Lower,
        "main_p50_ms @ serve_read",
    ),
    layer(
        "server.wire_us",
        "us",
        Lower,
        "main_p50_ms @ serve_read (the unexplained share)",
    ),
    layer(
        "server.epoll_wakeups_per_req",
        "ratio",
        Lower,
        "cpu_ms_per_op @ serve_read",
    ),
    layer(
        "server.cold_point_p50_ms",
        "ms",
        Lower,
        "setup_s @ serve_read",
    ),
    layer(
        "server.restart_ready_ms",
        "ms",
        Lower,
        "availability after kill -9 @ serve_write",
    ),
    layer(
        "server.jobs_queue_wait_us_mean",
        "us",
        Lower,
        "main_p50_ms @ analyze",
    ),
    layer(
        "server.jobs_decompose_us_mean",
        "us",
        Lower,
        "main_p50_ms, ops_per_s @ analyze",
    ),
    layer(
        "server.cache_hit_ratio",
        "ratio",
        Higher,
        "must be 1.0 in the hit phase @ analyze",
    ),
    layer(
        "server.cache_get_ns",
        "ns",
        Lower,
        "analysis_hit_p50_ms @ analyze",
    ),
    layer(
        "server.threads",
        "count",
        Lower,
        "peak_rss_mb, cpu_ms_per_op",
    ),
    // router
    layer(
        "router.point_overhead_us",
        "us",
        Lower,
        "main_p50_ms @ routed_read",
    ),
    layer(
        "router.page_overhead_us",
        "us",
        Lower,
        "side_p50_ms @ routed_read",
    ),
    layer(
        "router.fanout_mean",
        "count",
        Lower,
        "side_p50_ms @ routed_read",
    ),
    layer(
        "router.hedges_per_kreq",
        "ratio",
        Lower,
        "cpu_ms_per_op @ routed_read",
    ),
    layer(
        "router.failovers",
        "count",
        Lower,
        "main_tail_ms @ routed_read",
    ),
    layer(
        "router.merge_pages_us",
        "us",
        Lower,
        "side_p50_ms @ routed_read",
    ),
    layer(
        "router.cpu_ms_per_op",
        "ms",
        Lower,
        "cpu_ms_per_op, ops_per_s @ routed_read",
    ),
    layer(
        "router.threads",
        "count",
        Lower,
        "peak_rss_mb, cpu_ms_per_op @ routed_read",
    ),
    // telemetry, datagen, and the ledger itself
    layer(
        "telemetry.observe_ns",
        "ns",
        Lower,
        "cpu_ms_per_op everywhere",
    ),
    layer(
        "telemetry.render_us",
        "us",
        Lower,
        "scrape cost; cpu_ms_per_op everywhere",
    ),
    layer("datagen.generate_s", "s", Lower, "setup_s everywhere"),
    layer(
        "ledger.trace_overhead_pct",
        "%",
        Lower,
        "the cost of span recording in the generator",
    ),
    layer(
        "ledger.client_cpu_share",
        "ratio",
        Lower,
        "the generator must not be the bottleneck",
    ),
];

use crate::report::json_string;

/// `BENCHMARK.json`, exactly as the driver's contract spells it.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(&w.why.split_whitespace().collect::<Vec<_>>().join(" "))
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"ledger\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
