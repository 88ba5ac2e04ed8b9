//! Byte-level goldens of every format a running fleet persists or
//! hands to clients, captured from the commit *before* the FNV-1a
//! copies, the two frame encoders and the two cursor sealers were
//! folded into one implementation each: logs and segments written by
//! older binaries must still replay, and clients hold cursor tokens
//! across upgrades. (The published FNV-1a vectors, and the store
//! variant's, sit with `hyperbench_core::hash`.) The version-2 pack file
//! was captured from the commit before its writer began streaming pages
//! and carrying records by their bytes; the version-3 one, which adds
//! the id high-water mark to the header, from the commit that added it.

use hyperbench_api::{PageCursor, ScatterCursor, ShardSlot};
use hyperbench_core::properties::StructuralProperties;
use hyperbench_core::stats::SizeMetrics;
use hyperbench_repo::store::spill::{self, SpillRecord};
use hyperbench_repo::store::wal::{self, WalEntry, WalRecord};
use hyperbench_repo::AnalysisRecord;

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

#[test]
fn pack_file() {
    use hyperbench_repo::{Entry, Repository};
    let mut repo = Repository::new();
    for (id, name, text) in [
        (3, "", "e(a,b),f(b,c)."),
        (7, "csp/instance-7", "c(x,y,z)."),
    ] {
        repo.insert_entry(Entry {
            id,
            collection: "SPARQL".to_string(),
            class: "CQ Application".to_string(),
            hypergraph: hyperbench_core::format::parse_hg_named(text, name).unwrap(),
            analysis: None,
        })
        .unwrap();
    }
    let golden = unhex(
        "48425041434b310a0300000040000000020000000000000038000000000000009800000000000000\
         1800000000000000b000000000000000b20000000000000062010000000000001800000000000000\
         0800000000000000b333e5af4718bbf400000000100000006528612c62292c0a6628622c63292e0a\
         0e0000006373702f696e7374616e63652d370a0000006328782c792c7a292e0a0100000000000000\
         f96f1211e4e523f899d2495e53f87401030000000000000000000000000000001800000000000000\
         0600000053504152514c0e0000004351204170706c69636174696f6e030000000000000002000000\
         0000000002000000000000000aea8d7ae79dabe90007000000000000001800000000000000200000\
         00000000000600000053504152514c0e0000004351204170706c69636174696f6e03000000000000\
         0001000000000000000300000000000000aad9d02dab8f82390031b8e514af4fdda0030000000000\
         00000700000000000000010a683d54eaacbf",
    );
    let dir = hyperbench_integration_tests::fixture::tmpdir("golden-pack");
    let (written, repacked) = (dir.join("written.pack"), dir.join("repacked.pack"));
    hyperbench_repo::store::pack::write_pack_with(&repo, &written, 64).unwrap();
    assert_eq!(std::fs::read(&written).unwrap(), golden);
    // Re-packing an open pack carries its records by their bytes.
    std::fs::write(&written, &golden).unwrap();
    let opened = Repository::open_pack(&written).unwrap();
    hyperbench_repo::store::pack::write_pack_with(&opened, &repacked, 64).unwrap();
    assert_eq!(std::fs::read(&repacked).unwrap(), golden);
    assert_eq!(opened.entry(7).hypergraph.name(), "csp/instance-7");

    // The same repository as a version-2 pack, written before the header
    // kept the id high-water mark. It is read, never written: it opens
    // to the same entries with the mark one past its last id, and
    // re-packing it writes the version-3 golden.
    let v2 = unhex(
        "48425041434b310a0200000040000000020000000000000038000000000000009000000000000000\
         1800000000000000a800000000000000b2000000000000005a010000000000001800000000000000\
         5efd5f6eb91cdf9000000000100000006528612c62292c0a6628622c63292e0a0e0000006373702f\
         696e7374616e63652d370a0000006328782c792c7a292e0a0100000000000000f96f1211e4e523f8\
         99d2495e53f874010300000000000000000000000000000018000000000000000600000053504152\
         514c0e0000004351204170706c69636174696f6e0300000000000000020000000000000002000000\
         000000000aea8d7ae79dabe900070000000000000018000000000000002000000000000000060000\
         0053504152514c0e0000004351204170706c69636174696f6e030000000000000001000000000000\
         000300000000000000aad9d02dab8f82390031b8e514af4fdda00300000000000000070000000000\
         0000010a683d54eaacbf",
    );
    let legacy = dir.join("v2.pack");
    std::fs::write(&legacy, &v2).unwrap();
    let mut old = Repository::open_pack(&legacy).unwrap();
    let view = |r: &Repository| -> Vec<(usize, String, String, String, String)> {
        r.entries()
            .map(|e| {
                (
                    e.id,
                    e.collection.clone(),
                    e.class.clone(),
                    e.hypergraph.name().to_string(),
                    hyperbench_core::format::to_hg_unnamed(&e.hypergraph),
                )
            })
            .collect()
    };
    assert_eq!(view(&old), view(&opened));
    hyperbench_repo::store::pack::write_pack_with(&old, &repacked, 64).unwrap();
    assert_eq!(std::fs::read(&repacked).unwrap(), golden);
    let fresh = hyperbench_core::format::parse_hg("g(p,q).").unwrap();
    assert_eq!(old.insert(fresh, "SPARQL", "CQ Application"), 8);
}

#[test]
fn wal_frame() {
    let record = WalRecord::Insert {
        seq: 7,
        entry: WalEntry {
            id: 42,
            name: "g".to_string(),
            collection: "SPARQL".to_string(),
            class: "CQ Application".to_string(),
            hg_text: "e(a,b).\n".to_string(),
            analysis: None,
        },
    };
    let golden = unhex(
        "3f0000000107000000000000002a0000000000000001000000670600000053504152514c\
         0e0000004351204170706c69636174696f6e080000006528612c62292e0a00c15633a2f5c492c6",
    );
    assert_eq!(wal::encode(&record), golden);
    let (records, problem) = wal::scan(&golden);
    assert!(problem.is_none(), "{problem:?}");
    assert_eq!(records, vec![record]);

    let remove = WalRecord::Remove { seq: 8, id: 42 };
    let golden = unhex("110000000308000000000000002a00000000000000f0ee08c8ffa3a538");
    assert_eq!(wal::encode(&remove), golden);
    assert_eq!(wal::scan(&golden).0, vec![remove]);
}

#[test]
fn spill_frame() {
    let record = SpillRecord {
        hash: 0x0123_4567_89ab_cdef,
        keyed: "hd:k=4\ne(a,b).\n".to_string(),
        method: "hd".to_string(),
        hg_text: "e(a,b).\n".to_string(),
        record: AnalysisRecord {
            sizes: SizeMetrics {
                vertices: 2,
                edges: 1,
                arity: 2,
            },
            properties: StructuralProperties {
                degree: 1,
                bip: 0,
                bmip3: 0,
                bmip4: 0,
                vc_dim: Some(1),
            },
            hw_upper: Some(1),
            hw_lower: 1,
            hw_steps: Vec::new(),
            hw_timed_out: false,
        },
        witness_json: Some(r#"{"width":1}"#.to_string()),
        fractional_width: None,
    };
    let golden = unhex(
        "91000000efcdab89674523010f00000068643a6b3d340a6528612c62292e0a020000006864\
         080000006528612c62292e0a020000000000000001000000000000000200000000000000\
         010000000000000000000000000000000000000000000000000000000000000001010000\
         0000000000010100000000000000010000000000000000010b0000007b22776964746822\
         3a317d00b65ea312bdca9823",
    );
    assert_eq!(record.encode(), golden);
    let (records, problem) = spill::scan(&golden);
    assert!(problem.is_none(), "{problem:?}");
    assert_eq!(records, vec![record]);
}

#[test]
fn cursor_tokens() {
    let page = PageCursor {
        after_id: 41,
        snapshot: Some(7),
    };
    assert_eq!(page.encode(), "76313a34313a374f0db2fe");
    assert_eq!(PageCursor::decode("76313a34313a374f0db2fe"), Ok(page));
    assert_eq!(PageCursor::after(41).encode(), "76313a343163b7fa15");
    assert_eq!(
        PageCursor::decode("76313a343163b7fa15"),
        Ok(PageCursor::after(41))
    );

    let scatter = ScatterCursor {
        shards: vec![ShardSlot::Start, ShardSlot::Resume(page), ShardSlot::Done],
    };
    let token = "72313a732c373633313361333433313361333734663064623266652c78c3891c16";
    assert_eq!(scatter.encode(), token);
    assert_eq!(ScatterCursor::decode(token), Ok(scatter));
}

// ---------------------------------------------------------------------
// The `/v1` wire: every DTO and `ApiError`, one fully populated and one
// minimal instance each, captured from the commit before the DTOs moved
// from hand-written encoders to one declarative field table. Each case
// pins the encoder's exact bytes and decodes the golden back to the
// instance. `DecompositionDto` is also a stored format: the warm-restart
// spill persists it as `witness_json` and decodes it at bind.

use hyperbench_api::dto::*;
use hyperbench_api::{ApiError, ErrorCode, Json};

macro_rules! wire {
    ($ty:ty, $value:expr, $golden:expr) => {{
        let value: $ty = $value;
        assert_eq!(
            value.to_json().to_string(),
            $golden,
            "{} encodes",
            stringify!($ty)
        );
        assert_eq!(
            <$ty>::from_json(&Json::parse($golden).expect("golden parses")),
            Ok(value),
            "{} decodes",
            stringify!($ty)
        );
    }};
}

fn summary(id: usize, analyzed: bool) -> EntrySummary {
    EntrySummary {
        id,
        collection: "TPC-H".to_string(),
        class: "CQ \"Application\"\n\u{e9}".to_string(),
        vertices: 4,
        edges: 3,
        arity: 2,
        analyzed,
        hw_upper: analyzed.then_some(2),
        hw_lower: analyzed.then_some(1),
    }
}

fn report_full() -> AnalysisReport {
    AnalysisReport {
        sizes: SizeMetrics {
            vertices: 4,
            edges: 3,
            arity: 2,
        },
        properties: StructuralProperties {
            degree: 2,
            bip: 1,
            bmip3: 1,
            bmip4: 0,
            vc_dim: Some(2),
        },
        hw_upper: Some(2),
        hw_lower: 2,
        hw_exact: Some(2),
        cyclic: true,
        hw_timed_out: false,
    }
}

fn report_min() -> AnalysisReport {
    AnalysisReport {
        sizes: SizeMetrics {
            vertices: 0,
            edges: 0,
            arity: 0,
        },
        properties: StructuralProperties {
            degree: 0,
            bip: 0,
            bmip3: 0,
            bmip4: 0,
            vc_dim: None,
        },
        hw_upper: None,
        hw_lower: 1,
        hw_exact: None,
        cyclic: false,
        hw_timed_out: true,
    }
}

fn decomposition_full() -> DecompositionDto {
    DecompositionDto {
        method: AnalyzeMethod::Fhd,
        width: 2,
        validation: "valid-ghd".to_string(),
        fractional_width: Some("3/2".to_string()),
        nodes: vec![
            DecompNodeDto {
                id: 0,
                parent: None,
                bag: vec!["a".to_string(), "b".to_string()],
                cover: vec![
                    CoverAtomDto {
                        edge: "R".to_string(),
                        vertices: None,
                    },
                    CoverAtomDto {
                        edge: "S".to_string(),
                        vertices: Some(vec!["b".to_string()]),
                    },
                ],
            },
            DecompNodeDto {
                id: 1,
                parent: Some(0),
                bag: vec!["c".to_string()],
                cover: vec![CoverAtomDto {
                    edge: "T".to_string(),
                    vertices: Some(Vec::new()),
                }],
            },
        ],
    }
}

fn decomposition_min() -> DecompositionDto {
    DecompositionDto {
        method: AnalyzeMethod::Hd,
        width: 0,
        validation: "invalid: no nodes".to_string(),
        fractional_width: None,
        nodes: Vec::new(),
    }
}

fn stats_full() -> StatsDto {
    StatsDto {
        repository: RepoStatsDto {
            entries: 12,
            analyzed: 8,
            cyclic: 5,
            hw_timeouts: 1,
            total_vertices: 40,
            total_edges: 33,
            max_arity: 4,
            by_class: vec![
                ("CQ Application".to_string(), 8),
                ("CSP Random".to_string(), 4),
            ],
            by_collection: vec![("SPARQL".to_string(), 6)],
            hw_exact: vec![("1".to_string(), 3), ("2".to_string(), 5)],
        },
        cache: CacheStatsDto {
            hits: 3,
            misses: 4,
            len: 4,
            capacity: 512,
            evictions: 1 << 40,
            spill_appends: 4,
            spill_append_failures: 1,
        },
        jobs: JobStatsDto {
            submitted: 7,
            queued: 1,
            running: 1,
            done: 4,
            failed: 1,
            deduped: 2,
            facts_reused: 3,
        },
        query: QueryStatsDto {
            queries: 9,
            errors: 1,
            rows_scanned: 120,
            rows_hydrated: 2,
        },
        telemetry: TelemetryDto {
            counters: vec![
                ("hyperbench_cache_hits_total".to_string(), 3),
                ("hyperbench_http_requests_total".to_string(), u64::MAX >> 1),
            ],
            gauges: vec![("hyperbench_jobs_queue_depth".to_string(), -3)],
            histograms: vec![HistogramSummaryDto {
                name: "hyperbench_http_handle_us".to_string(),
                count: 7,
                sum: 900,
                mean: 128,
                p50: 128,
                p90: 256,
                p99: 512,
            }],
        },
    }
}

fn stats_min() -> StatsDto {
    StatsDto {
        repository: RepoStatsDto {
            entries: 0,
            analyzed: 0,
            cyclic: 0,
            hw_timeouts: 0,
            total_vertices: 0,
            total_edges: 0,
            max_arity: 0,
            by_class: Vec::new(),
            by_collection: Vec::new(),
            hw_exact: Vec::new(),
        },
        cache: CacheStatsDto {
            hits: 0,
            misses: 0,
            len: 0,
            capacity: 0,
            evictions: 0,
            spill_appends: 0,
            spill_append_failures: 0,
        },
        jobs: JobStatsDto {
            submitted: 0,
            queued: 0,
            running: 0,
            done: 0,
            failed: 0,
            deduped: 0,
            facts_reused: 0,
        },
        query: QueryStatsDto::default(),
        telemetry: TelemetryDto::default(),
    }
}

#[test]
fn wire_requests() {
    wire!(
        AnalyzeRequest,
        AnalyzeRequest {
            hypergraph: "e1(a,b),\n\"q\"(b,c).".to_string(),
            method: AnalyzeMethod::Fhd,
            max_width: Some(4),
            timeout_ms: Some(250),
            jobs: Some(2),
        },
        r#"{"hypergraph":"e1(a,b),\n\"q\"(b,c).","method":"fhd","max_width":4,"timeout_ms":250,"jobs":2}"#
    );
    wire!(
        AnalyzeRequest,
        AnalyzeRequest::hd("e(a,b)."),
        r#"{"hypergraph":"e(a,b).","method":"hd"}"#
    );
    wire!(
        AnalyzeRequest,
        AnalyzeRequest::hd("e(a,b).").with_method(AnalyzeMethod::Ghd),
        r#"{"hypergraph":"e(a,b).","method":"ghd"}"#
    );
    wire!(
        QueryRequest,
        QueryRequest {
            query: "SELECT * WHERE hw_upper <= 5".to_string(),
            cursor: Some("76313a343163b7fa15".to_string()),
        },
        r#"{"query":"SELECT * WHERE hw_upper <= 5","cursor":"76313a343163b7fa15"}"#
    );
    wire!(
        QueryRequest,
        QueryRequest::new("SELECT COUNT(*)"),
        r#"{"query":"SELECT COUNT(*)"}"#
    );
    wire!(
        WriteRequest,
        WriteRequest::labeled("e(a,b).", "SPARQL", "CQ Application"),
        r#"{"hypergraph":"e(a,b).","collection":"SPARQL","class":"CQ Application"}"#
    );
    wire!(
        WriteRequest,
        WriteRequest::new("e(a,b)."),
        r#"{"hypergraph":"e(a,b).","collection":"uploads","class":"Uploaded"}"#
    );
}

#[test]
fn wire_entries_and_pages() {
    wire!(
        EntrySummary,
        summary(3, true),
        r#"{"id":3,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":true,"hw_upper":2,"hw_lower":1}"#
    );
    wire!(
        EntrySummary,
        summary(0, false),
        r#"{"id":0,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":false,"hw_upper":null,"hw_lower":null}"#
    );
    wire!(
        PageDto,
        PageDto {
            total: 12,
            items: vec![summary(3, true), summary(4, false)],
            next_cursor: Some("76313a343163b7fa15".to_string()),
            partial: vec![1, 3],
        },
        r#"{"total":12,"items":[{"id":3,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":true,"hw_upper":2,"hw_lower":1},{"id":4,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":false,"hw_upper":null,"hw_lower":null}],"next_cursor":"76313a343163b7fa15","partial":[1,3]}"#
    );
    wire!(
        PageDto,
        PageDto::new(0, Vec::new(), None),
        r#"{"total":0,"items":[],"next_cursor":null}"#
    );
    wire!(
        EntryDetail,
        EntryDetail {
            summary: summary(3, true),
            edge_list: vec![
                EdgeDto {
                    name: "R".to_string(),
                    vertices: vec!["a".to_string(), "b".to_string()],
                },
                EdgeDto {
                    name: "S".to_string(),
                    vertices: Vec::new(),
                },
            ],
            analysis: Some(report_full()),
        },
        r#"{"id":3,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":true,"hw_upper":2,"hw_lower":1,"edge_list":[{"name":"R","vertices":["a","b"]},{"name":"S","vertices":[]}],"analysis":{"sizes":{"vertices":4,"edges":3,"arity":2},"properties":{"degree":2,"bip":1,"bmip3":1,"bmip4":0,"vc_dim":2},"hw_upper":2,"hw_lower":2,"hw_exact":2,"cyclic":true,"hw_timed_out":false}}"#
    );
    wire!(
        EntryDetail,
        EntryDetail {
            summary: summary(0, false),
            edge_list: Vec::new(),
            analysis: None,
        },
        r#"{"id":0,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":false,"hw_upper":null,"hw_lower":null,"edge_list":[],"analysis":null}"#
    );
}

#[test]
fn wire_query_responses() {
    wire!(
        QueryResponse,
        QueryResponse::Rows(PageDto {
            total: 2,
            items: vec![summary(5, true)],
            next_cursor: Some("76313a343163b7fa15".to_string()),
            partial: vec![0],
        }),
        r#"{"kind":"rows","total":2,"items":[{"id":5,"collection":"TPC-H","class":"CQ \"Application\"\né","vertices":4,"edges":3,"arity":2,"analyzed":true,"hw_upper":2,"hw_lower":1}],"next_cursor":"76313a343163b7fa15","partial":[0]}"#
    );
    wire!(
        QueryResponse,
        QueryResponse::Rows(PageDto::new(0, Vec::new(), None)),
        r#"{"kind":"rows","total":0,"items":[],"next_cursor":null}"#
    );
    wire!(
        QueryResponse,
        QueryResponse::Groups {
            group_by: Some("class".to_string()),
            groups: vec![Json::obj([
                ("class", Json::str("CSP Random")),
                ("count", Json::int(4))
            ])],
        },
        r#"{"kind":"groups","group_by":"class","total":1,"groups":[{"class":"CSP Random","count":4}]}"#
    );
    wire!(
        QueryResponse,
        QueryResponse::Groups {
            group_by: None,
            groups: Vec::new(),
        },
        r#"{"kind":"groups","group_by":null,"total":0,"groups":[]}"#
    );
}

#[test]
fn wire_writes() {
    wire!(
        WriteReceipt,
        WriteReceipt {
            id: 42,
            outcome: WriteOutcome::Created,
            seq: Some(7),
            content_hash: Some(0x0123_4567_89ab_cdef),
        },
        r#"{"id":42,"outcome":"created","seq":7,"content_hash":"0123456789abcdef"}"#
    );
    wire!(
        WriteReceipt,
        WriteReceipt {
            id: 42,
            outcome: WriteOutcome::Exists,
            seq: None,
            content_hash: Some(u64::MAX),
        },
        r#"{"id":42,"outcome":"exists","seq":null,"content_hash":"ffffffffffffffff"}"#
    );
    wire!(
        WriteReceipt,
        WriteReceipt {
            id: 1,
            outcome: WriteOutcome::Replaced,
            seq: Some(8),
            content_hash: Some(0),
        },
        r#"{"id":1,"outcome":"replaced","seq":8,"content_hash":"0000000000000000"}"#
    );
    wire!(
        WriteReceipt,
        WriteReceipt {
            id: 1,
            outcome: WriteOutcome::Removed,
            seq: Some(9),
            content_hash: None,
        },
        r#"{"id":1,"outcome":"removed","seq":9,"content_hash":null}"#
    );
}

#[test]
fn wire_analyses() {
    wire!(
        AnalysisReport,
        report_full(),
        r#"{"sizes":{"vertices":4,"edges":3,"arity":2},"properties":{"degree":2,"bip":1,"bmip3":1,"bmip4":0,"vc_dim":2},"hw_upper":2,"hw_lower":2,"hw_exact":2,"cyclic":true,"hw_timed_out":false}"#
    );
    wire!(
        AnalysisReport,
        report_min(),
        r#"{"sizes":{"vertices":0,"edges":0,"arity":0},"properties":{"degree":0,"bip":0,"bmip3":0,"bmip4":0,"vc_dim":null},"hw_upper":null,"hw_lower":1,"hw_exact":null,"cyclic":false,"hw_timed_out":true}"#
    );
    wire!(
        DecompositionDto,
        decomposition_full(),
        r#"{"method":"fhd","width":2,"validation":"valid-ghd","fractional_width":"3/2","nodes":[{"id":0,"parent":null,"bag":["a","b"],"cover":[{"edge":"R"},{"edge":"S","vertices":["b"]}]},{"id":1,"parent":0,"bag":["c"],"cover":[{"edge":"T","vertices":[]}]}]}"#
    );
    wire!(
        DecompositionDto,
        decomposition_min(),
        r#"{"method":"hd","width":0,"validation":"invalid: no nodes","fractional_width":null,"nodes":[]}"#
    );
    wire!(
        AnalysisResource,
        AnalysisResource {
            id: 9,
            status: AnalysisStatus::Done,
            method: Some(AnalyzeMethod::Ghd),
            cached: Some(true),
            result: Some(report_full()),
            decomposition: Some(decomposition_full()),
            error: None,
        },
        r#"{"id":9,"status":"done","method":"ghd","cached":true,"result":{"sizes":{"vertices":4,"edges":3,"arity":2},"properties":{"degree":2,"bip":1,"bmip3":1,"bmip4":0,"vc_dim":2},"hw_upper":2,"hw_lower":2,"hw_exact":2,"cyclic":true,"hw_timed_out":false},"decomposition":{"method":"fhd","width":2,"validation":"valid-ghd","fractional_width":"3/2","nodes":[{"id":0,"parent":null,"bag":["a","b"],"cover":[{"edge":"R"},{"edge":"S","vertices":["b"]}]},{"id":1,"parent":0,"bag":["c"],"cover":[{"edge":"T","vertices":[]}]}]}}"#
    );
    wire!(
        AnalysisResource,
        AnalysisResource {
            id: 0,
            status: AnalysisStatus::Queued,
            method: None,
            cached: None,
            result: None,
            decomposition: None,
            error: None,
        },
        r#"{"id":0,"status":"queued"}"#
    );
    wire!(
        AnalysisResource,
        AnalysisResource {
            id: 1,
            status: AnalysisStatus::Running,
            method: Some(AnalyzeMethod::Hd),
            cached: Some(false),
            result: None,
            decomposition: None,
            error: None,
        },
        r#"{"id":1,"status":"running","method":"hd","cached":false}"#
    );
    wire!(
        AnalysisResource,
        AnalysisResource {
            id: 2,
            status: AnalysisStatus::Failed,
            method: Some(AnalyzeMethod::Fhd),
            cached: None,
            result: None,
            decomposition: None,
            error: Some("parse error: line 1".to_string()),
        },
        r#"{"id":2,"status":"failed","method":"fhd","error":"parse error: line 1"}"#
    );
}

const STATS_MIN: &str = r#"{"repository":{"entries":0,"analyzed":0,"cyclic":0,"hw_timeouts":0,"total_vertices":0,"total_edges":0,"max_arity":0,"by_class":{},"by_collection":{},"hw_exact":{}},"cache":{"hits":0,"misses":0,"len":0,"capacity":0,"evictions":0,"spill_appends":0,"spill_append_failures":0},"jobs":{"submitted":0,"queued":0,"running":0,"done":0,"failed":0,"deduped":0,"facts_reused":0},"query":{"queries":0,"errors":0,"rows_scanned":0,"rows_hydrated":0},"telemetry":{"counters":{},"gauges":{},"histograms":[]}}"#;

#[test]
fn wire_stats() {
    let (full, min) = (stats_full(), stats_min());
    wire!(
        RepoStatsDto,
        full.repository.clone(),
        r#"{"entries":12,"analyzed":8,"cyclic":5,"hw_timeouts":1,"total_vertices":40,"total_edges":33,"max_arity":4,"by_class":{"CQ Application":8,"CSP Random":4},"by_collection":{"SPARQL":6},"hw_exact":{"1":3,"2":5}}"#
    );
    wire!(
        RepoStatsDto,
        min.repository.clone(),
        r#"{"entries":0,"analyzed":0,"cyclic":0,"hw_timeouts":0,"total_vertices":0,"total_edges":0,"max_arity":0,"by_class":{},"by_collection":{},"hw_exact":{}}"#
    );
    wire!(
        CacheStatsDto,
        full.cache,
        r#"{"hits":3,"misses":4,"len":4,"capacity":512,"evictions":1099511627776,"spill_appends":4,"spill_append_failures":1}"#
    );
    wire!(
        CacheStatsDto,
        min.cache,
        r#"{"hits":0,"misses":0,"len":0,"capacity":0,"evictions":0,"spill_appends":0,"spill_append_failures":0}"#
    );
    wire!(
        JobStatsDto,
        full.jobs,
        r#"{"submitted":7,"queued":1,"running":1,"done":4,"failed":1,"deduped":2,"facts_reused":3}"#
    );
    wire!(
        JobStatsDto,
        min.jobs,
        r#"{"submitted":0,"queued":0,"running":0,"done":0,"failed":0,"deduped":0,"facts_reused":0}"#
    );
    wire!(
        QueryStatsDto,
        full.query,
        r#"{"queries":9,"errors":1,"rows_scanned":120,"rows_hydrated":2}"#
    );
    wire!(
        QueryStatsDto,
        min.query,
        r#"{"queries":0,"errors":0,"rows_scanned":0,"rows_hydrated":0}"#
    );
    wire!(
        HistogramSummaryDto,
        full.telemetry.histograms[0].clone(),
        r#"{"name":"hyperbench_http_handle_us","count":7,"sum":900,"mean":128,"p50":128,"p90":256,"p99":512}"#
    );
    wire!(
        TelemetryDto,
        full.telemetry.clone(),
        r#"{"counters":{"hyperbench_cache_hits_total":3,"hyperbench_http_requests_total":9223372036854775807},"gauges":{"hyperbench_jobs_queue_depth":-3},"histograms":[{"name":"hyperbench_http_handle_us","count":7,"sum":900,"mean":128,"p50":128,"p90":256,"p99":512}]}"#
    );
    wire!(
        TelemetryDto,
        min.telemetry.clone(),
        r#"{"counters":{},"gauges":{},"histograms":[]}"#
    );
    wire!(
        StatsDto,
        full,
        r#"{"repository":{"entries":12,"analyzed":8,"cyclic":5,"hw_timeouts":1,"total_vertices":40,"total_edges":33,"max_arity":4,"by_class":{"CQ Application":8,"CSP Random":4},"by_collection":{"SPARQL":6},"hw_exact":{"1":3,"2":5}},"cache":{"hits":3,"misses":4,"len":4,"capacity":512,"evictions":1099511627776,"spill_appends":4,"spill_append_failures":1},"jobs":{"submitted":7,"queued":1,"running":1,"done":4,"failed":1,"deduped":2,"facts_reused":3},"query":{"queries":9,"errors":1,"rows_scanned":120,"rows_hydrated":2},"telemetry":{"counters":{"hyperbench_cache_hits_total":3,"hyperbench_http_requests_total":9223372036854775807},"gauges":{"hyperbench_jobs_queue_depth":-3},"histograms":[{"name":"hyperbench_http_handle_us","count":7,"sum":900,"mean":128,"p50":128,"p90":256,"p99":512}]}}"#
    );
    wire!(StatsDto, min.clone(), STATS_MIN);
    // A payload from before the HBQL section decodes with zeroed counters.
    let mut legacy = Json::parse(STATS_MIN).unwrap();
    if let Json::Obj(fields) = &mut legacy {
        fields.retain(|(k, _)| k != "query");
    }
    assert_eq!(StatsDto::from_json(&legacy), Ok(min));
}

#[test]
fn wire_errors() {
    for (code, golden) in [
        (
            ErrorCode::BadRequest,
            r#"{"code":"bad_request","error":"BadRequest \"here\""}"#,
        ),
        (
            ErrorCode::InvalidParam,
            r#"{"code":"invalid_param","error":"InvalidParam \"here\""}"#,
        ),
        (
            ErrorCode::InvalidCursor,
            r#"{"code":"invalid_cursor","error":"InvalidCursor \"here\""}"#,
        ),
        (
            ErrorCode::ParseError,
            r#"{"code":"parse_error","error":"ParseError \"here\""}"#,
        ),
        (
            ErrorCode::NotFound,
            r#"{"code":"not_found","error":"NotFound \"here\""}"#,
        ),
        (
            ErrorCode::MethodNotAllowed,
            r#"{"code":"method_not_allowed","error":"MethodNotAllowed \"here\""}"#,
        ),
        (
            ErrorCode::PayloadTooLarge,
            r#"{"code":"payload_too_large","error":"PayloadTooLarge \"here\""}"#,
        ),
        (
            ErrorCode::RequestTimeout,
            r#"{"code":"request_timeout","error":"RequestTimeout \"here\""}"#,
        ),
        (
            ErrorCode::Conflict,
            r#"{"code":"conflict","error":"Conflict \"here\""}"#,
        ),
        (
            ErrorCode::InvalidHypergraph,
            r#"{"code":"invalid_hypergraph","error":"InvalidHypergraph \"here\""}"#,
        ),
        (
            ErrorCode::InvalidQuery,
            r#"{"code":"invalid_query","error":"InvalidQuery \"here\""}"#,
        ),
        (
            ErrorCode::ReadOnly,
            r#"{"code":"read_only","error":"ReadOnly \"here\""}"#,
        ),
        (
            ErrorCode::QueueFull,
            r#"{"code":"queue_full","error":"QueueFull \"here\""}"#,
        ),
        (
            ErrorCode::ShuttingDown,
            r#"{"code":"shutting_down","error":"ShuttingDown \"here\""}"#,
        ),
        (
            ErrorCode::Internal,
            r#"{"code":"internal","error":"Internal \"here\""}"#,
        ),
        (
            ErrorCode::Overloaded,
            r#"{"code":"overloaded","error":"Overloaded \"here\""}"#,
        ),
        (
            ErrorCode::Degraded,
            r#"{"code":"degraded","error":"Degraded \"here\""}"#,
        ),
        (
            ErrorCode::BadUpstream,
            r#"{"code":"bad_upstream","error":"BadUpstream \"here\""}"#,
        ),
    ] {
        let err = ApiError::new(code, format!("{code:?} \"here\""));
        assert_eq!(err.to_json().to_string(), golden);
        assert_eq!(ApiError::from_json(&Json::parse(golden).unwrap()), err);
    }
}
