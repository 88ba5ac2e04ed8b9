//! Every DTO survives the wire: for random instances of all 21 DTO
//! types (and `ApiError`), `from_json(parse(x.to_json().to_string()))`
//! gives back `x`. Strings mix quotes, backslashes, control characters
//! and non-ASCII text; integers span the wire's whole non-negative range.

use hyperbench_api::dto::*;
use hyperbench_api::{ApiError, ErrorCode, Json};
use hyperbench_core::properties::StructuralProperties;
use hyperbench_core::stats::SizeMetrics;
use proptest::prelude::*;

/// A seeded xorshift64* source of DTO parts.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A wire integer: small or anywhere up to `i64::MAX`.
    fn u64(&mut self) -> u64 {
        if self.flip() {
            self.below(10)
        } else {
            self.next() >> 1
        }
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn string(&mut self) -> String {
        const PARTS: [&str; 10] = ["a", "Z", "0", " ", "\"", "\\", "\n", "\u{1}", "é", "漢🦀"];
        (0..self.below(6))
            .map(|_| PARTS[self.below(PARTS.len() as u64) as usize])
            .collect()
    }

    /// A key unique within its object: `i:` ends at the first colon.
    fn key(&mut self, i: usize) -> String {
        format!("{i}:{}", self.string())
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.flip() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| f(self)).collect()
    }

    fn pairs<T>(&mut self, mut f: impl FnMut(&mut Gen) -> T) -> Vec<(String, T)> {
        (0..self.below(4) as usize)
            .map(|i| (self.key(i), f(self)))
            .collect()
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }

    fn method(&mut self) -> AnalyzeMethod {
        self.pick(&[AnalyzeMethod::Hd, AnalyzeMethod::Ghd, AnalyzeMethod::Fhd])
    }

    fn analyze_request(&mut self) -> AnalyzeRequest {
        AnalyzeRequest {
            hypergraph: self.string(),
            method: self.method(),
            max_width: self.opt(Gen::usize),
            timeout_ms: self.opt(Gen::u64),
            jobs: self.opt(Gen::usize),
        }
    }

    fn summary(&mut self) -> EntrySummary {
        EntrySummary {
            id: self.usize(),
            collection: self.string(),
            class: self.string(),
            vertices: self.usize(),
            edges: self.usize(),
            arity: self.usize(),
            analyzed: self.flip(),
            hw_upper: self.opt(Gen::usize),
            hw_lower: self.opt(Gen::usize),
        }
    }

    fn page(&mut self) -> PageDto {
        PageDto {
            total: self.usize(),
            items: self.vec(3, Gen::summary),
            next_cursor: self.opt(Gen::string),
            partial: self.vec(3, Gen::usize),
        }
    }

    fn query_request(&mut self) -> QueryRequest {
        QueryRequest {
            query: self.string(),
            cursor: self.opt(Gen::string),
        }
    }

    fn group(&mut self) -> Json {
        let fields = (0..self.below(4) as usize)
            .map(|i| {
                let value = match self.below(4) {
                    0 => Json::Null,
                    1 => Json::Bool(self.flip()),
                    2 => Json::Int(self.next() as i64),
                    _ => Json::Str(self.string()),
                };
                (self.key(i), value)
            })
            .collect();
        Json::Obj(fields)
    }

    fn query_response(&mut self) -> QueryResponse {
        if self.flip() {
            QueryResponse::Rows(self.page())
        } else {
            QueryResponse::Groups {
                group_by: self.opt(Gen::string),
                groups: self.vec(3, Gen::group),
            }
        }
    }

    fn write_request(&mut self) -> WriteRequest {
        WriteRequest::labeled(self.string(), self.string(), self.string())
    }

    fn write_receipt(&mut self) -> WriteReceipt {
        WriteReceipt {
            id: self.usize(),
            outcome: self.pick(&[
                WriteOutcome::Created,
                WriteOutcome::Exists,
                WriteOutcome::Replaced,
                WriteOutcome::Removed,
            ]),
            seq: self.opt(Gen::u64),
            // Any u64: the hash travels as hex, not as a wire integer.
            content_hash: self.opt(Gen::next),
        }
    }

    fn edge(&mut self) -> EdgeDto {
        EdgeDto {
            name: self.string(),
            vertices: self.vec(3, Gen::string),
        }
    }

    fn report(&mut self) -> AnalysisReport {
        AnalysisReport {
            sizes: SizeMetrics {
                vertices: self.usize(),
                edges: self.usize(),
                arity: self.usize(),
            },
            properties: StructuralProperties {
                degree: self.usize(),
                bip: self.usize(),
                bmip3: self.usize(),
                bmip4: self.usize(),
                vc_dim: self.opt(Gen::usize),
            },
            hw_upper: self.opt(Gen::usize),
            hw_lower: self.usize(),
            hw_exact: self.opt(Gen::usize),
            cyclic: self.flip(),
            hw_timed_out: self.flip(),
        }
    }

    fn detail(&mut self) -> EntryDetail {
        EntryDetail {
            summary: self.summary(),
            edge_list: self.vec(3, Gen::edge),
            analysis: self.opt(Gen::report),
        }
    }

    fn atom(&mut self) -> CoverAtomDto {
        CoverAtomDto {
            edge: self.string(),
            vertices: self.opt(|g| g.vec(3, Gen::string)),
        }
    }

    fn node(&mut self) -> DecompNodeDto {
        DecompNodeDto {
            id: self.usize(),
            parent: self.opt(Gen::usize),
            bag: self.vec(3, Gen::string),
            cover: self.vec(3, Gen::atom),
        }
    }

    fn decomposition(&mut self) -> DecompositionDto {
        DecompositionDto {
            method: self.method(),
            width: self.usize(),
            validation: self.string(),
            fractional_width: self.opt(Gen::string),
            nodes: self.vec(3, Gen::node),
        }
    }

    fn resource(&mut self) -> AnalysisResource {
        AnalysisResource {
            id: self.u64(),
            status: self.pick(&[
                AnalysisStatus::Queued,
                AnalysisStatus::Running,
                AnalysisStatus::Done,
                AnalysisStatus::Failed,
            ]),
            method: self.opt(Gen::method),
            cached: self.opt(Gen::flip),
            result: self.opt(Gen::report),
            decomposition: self.opt(Gen::decomposition),
            error: self.opt(Gen::string),
        }
    }

    fn repo_stats(&mut self) -> RepoStatsDto {
        RepoStatsDto {
            entries: self.usize(),
            analyzed: self.usize(),
            cyclic: self.usize(),
            hw_timeouts: self.usize(),
            total_vertices: self.usize(),
            total_edges: self.usize(),
            max_arity: self.usize(),
            by_class: self.pairs(Gen::usize),
            by_collection: self.pairs(Gen::usize),
            hw_exact: self.pairs(Gen::usize),
        }
    }

    fn cache_stats(&mut self) -> CacheStatsDto {
        CacheStatsDto {
            hits: self.usize(),
            misses: self.usize(),
            len: self.usize(),
            capacity: self.usize(),
            evictions: self.u64(),
            spill_appends: self.u64(),
            spill_append_failures: self.u64(),
        }
    }

    fn job_stats(&mut self) -> JobStatsDto {
        JobStatsDto {
            submitted: self.usize(),
            queued: self.usize(),
            running: self.usize(),
            done: self.usize(),
            failed: self.usize(),
            deduped: self.usize(),
            facts_reused: self.usize(),
        }
    }

    fn histogram(&mut self) -> HistogramSummaryDto {
        HistogramSummaryDto {
            name: self.string(),
            count: self.u64(),
            sum: self.u64(),
            mean: self.u64(),
            p50: self.u64(),
            p90: self.u64(),
            p99: self.u64(),
        }
    }

    fn telemetry(&mut self) -> TelemetryDto {
        TelemetryDto {
            counters: self.pairs(Gen::u64),
            gauges: self.pairs(|g| g.next() as i64),
            histograms: self.vec(3, Gen::histogram),
        }
    }

    fn query_stats(&mut self) -> QueryStatsDto {
        QueryStatsDto {
            queries: self.u64(),
            errors: self.u64(),
            rows_scanned: self.u64(),
            rows_hydrated: self.u64(),
        }
    }

    fn stats(&mut self) -> StatsDto {
        StatsDto {
            repository: self.repo_stats(),
            cache: self.cache_stats(),
            jobs: self.job_stats(),
            query: self.query_stats(),
            telemetry: self.telemetry(),
        }
    }

    fn api_error(&mut self) -> ApiError {
        let code = self.pick(&[
            ErrorCode::NotFound,
            ErrorCode::InvalidQuery,
            ErrorCode::Internal,
        ]);
        ApiError {
            request_id: self.opt(Gen::u64),
            ..ApiError::new(code, self.string())
        }
    }
}

/// Encodes, prints, parses and decodes one value of each listed type.
macro_rules! roundtrip {
    ($g:ident: $($ty:ident => $make:ident),+ $(,)?) => {$(
        let value = $g.$make();
        let wire = value.to_json().to_string();
        let back = $ty::from_json(&Json::parse(&wire).expect("the encoder writes JSON"));
        prop_assert_eq!(back, Ok(value), "{} over {}", stringify!($ty), wire);
    )+};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_dto_survives_the_wire(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        roundtrip!(g:
            AnalyzeRequest => analyze_request,
            EntrySummary => summary,
            PageDto => page,
            QueryRequest => query_request,
            QueryResponse => query_response,
            WriteRequest => write_request,
            WriteReceipt => write_receipt,
            EdgeDto => edge,
            EntryDetail => detail,
            AnalysisReport => report,
            CoverAtomDto => atom,
            DecompNodeDto => node,
            DecompositionDto => decomposition,
            AnalysisResource => resource,
            RepoStatsDto => repo_stats,
            CacheStatsDto => cache_stats,
            JobStatsDto => job_stats,
            HistogramSummaryDto => histogram,
            TelemetryDto => telemetry,
            QueryStatsDto => query_stats,
            StatsDto => stats,
        );
        let err = g.api_error();
        let wire = err.to_json().to_string();
        prop_assert_eq!(ApiError::from_json(&Json::parse(&wire).unwrap()), err);
    }
}
