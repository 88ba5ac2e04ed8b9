//! Byte-level goldens of every format a running fleet persists or
//! hands to clients, captured from the commit *before* the FNV-1a
//! copies, the two frame encoders and the two cursor sealers were
//! folded into one implementation each: logs and segments written by
//! older binaries must still replay, and clients hold cursor tokens
//! across upgrades. (The published FNV-1a vectors, and the store
//! variant's, sit with `hyperbench_core::hash`.) The pack file was
//! captured from the commit before its writer began streaming pages and
//! carrying records by their bytes.

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
