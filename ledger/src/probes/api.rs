//! `api`: the JSON codec, DTO encoders and cursor codec on the reads'
//! hot path, and the stock `Client` against the ledger's keep-alive
//! reads.

use std::hint::black_box;

use hyperbench_api::dto::{EntryDetail, PageDto, WriteRequest};
use hyperbench_api::{Client, Json, PageCursor};

use super::Probes;

pub fn run(p: &mut Probes<'_>) -> Result<(), String> {
    let corpus = std::sync::Arc::clone(&p.inputs.corpus);
    // The body of a write as the server's handler parses it.
    let bodies: Vec<String> = p
        .uploads
        .iter()
        .map(|doc| WriteRequest::new(doc.as_str()).to_json().to_string())
        .collect();
    let mut next = 0;
    p.time("api.json_parse_us", 1e3, || {
        black_box(Json::parse(&bodies[next % bodies.len()]).expect("encoded above"));
        next += 1;
    });

    let details: Vec<EntryDetail> = (0..corpus.len().min(256))
        .map(|id| corpus.detail(id))
        .collect();
    let mut next = 0;
    p.time("api.detail_encode_us", 1e3, || {
        black_box(details[next % details.len()].to_json().to_string());
        next += 1;
    });

    let page = PageDto::new(
        corpus.len(),
        (0..100.min(corpus.len()))
            .map(|id| corpus.summary(id))
            .collect(),
        Some(PageCursor::after(99).encode()),
    );
    p.time("api.page_encode_us", 1e3, || {
        black_box(page.to_json().to_string());
    });

    let mut id = 0;
    p.time("api.cursor_codec_ns", 1.0, || {
        let token = PageCursor::after(id).encode();
        black_box(PageCursor::decode(&token).expect("just encoded"));
        id += 1;
    });

    let client = Client::new(p.inputs.front);
    client
        .entry(0)
        .map_err(|e| format!("api.client_entry_us: {e}"))?;
    let mut id = 0;
    let mut failed = false;
    p.time("api.client_entry_us", 1e3, || {
        failed |= client.entry(id % corpus.len()).is_err();
        id += 1;
    });
    if failed {
        return Err("api.client_entry_us: a Client::entry call failed".to_string());
    }
    Ok(())
}
