//! Byte-level goldens of every format a running fleet persists or
//! hands to clients, captured from the commit *before* the FNV-1a
//! copies, the two frame encoders and the two cursor sealers were
//! folded into one implementation each: logs and segments written by
//! older binaries must still replay, and clients hold cursor tokens
//! across upgrades. (The published FNV-1a vectors, and the store
//! variant's, sit with `hyperbench_core::hash`.)

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
