//! `server`: the request parser and response serializer every
//! exchange passes through, and the analysis cache lookup behind the
//! hit phase.

use std::hint::black_box;
use std::sync::Arc;

use hyperbench_api::dto::AnalyzeMethod;
use hyperbench_core::format::to_hg;
use hyperbench_repo::{analyze_instance, AnalysisConfig};
use hyperbench_server::cache::{canonicalize, content_hash, AnalysisCache, JobResult};
use hyperbench_server::http::{Parse, RequestParser, Response};

use super::Probes;

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    let request = crate::http::get("/v1/hypergraphs/1234");
    let mut parser = RequestParser::new();
    match parser.advance(&request) {
        Ok((_, Parse::Complete(_))) => {}
        other => return Err(format!("server.http_parse_ns: parser answered {other:?}")),
    }
    p.time("server.http_parse_ns", 1.0, || {
        black_box(parser.advance(&request).is_ok());
    });

    // A detail-sized JSON body.
    let response = Response::json(200, "x".repeat(1500));
    let mut out = Vec::with_capacity(2048);
    p.time("server.serialize_ns", 1.0, || {
        out.clear();
        response.serialize_into(true, &mut out);
        black_box(out.len());
    });

    // The server's default capacity, full.
    let cache = AnalysisCache::new(256);
    let h = &p.basket[0];
    let mut keys = Vec::with_capacity(256);
    for n in 0..256 {
        let canonical = canonicalize(&format!("hd:8:8000\n% {n}\n{}", to_hg(h)));
        let key = content_hash(&canonical);
        cache.put(
            key,
            canonical.clone(),
            Arc::new(JobResult {
                hypergraph: h.clone(),
                method: AnalyzeMethod::Hd,
                record: analyze_instance(h, &AnalysisConfig::default()),
                witness: None,
                witness_dto: None,
                fractional_width: None,
            }),
        );
        keys.push((key, canonical));
    }
    let mut next = 0;
    let mut missed = false;
    p.time("server.cache_get_ns", 1.0, || {
        let (key, canonical) = &keys[next % keys.len()];
        missed |= cache.get(*key, canonical).is_none();
        next += 1;
    });
    if missed {
        return Err("server.cache_get_ns: a resident key missed".to_string());
    }
    Ok(())
}
