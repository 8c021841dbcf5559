//! Golden-file test pinning the WAL record wire format byte-for-byte.
//!
//! The on-disk framing is `[len u32 le][crc32 u32 le][payload]` with the
//! payload laid out as `xid u64, gsn u64, lsn u64, body-tag u8, ...`. Any
//! change to this layout silently breaks recovery of logs written by
//! earlier builds, so the exact bytes are pinned in
//! `tests/fixtures/wal_records.hex` (one hex-encoded frame per line).
//!
//! If you change the format *deliberately*, regenerate the fixture with
//! `PHOEBE_REGEN_FIXTURES=1 cargo test -p phoebe-bench --test wal_golden`
//! and bump the recovery code to handle both layouts (or document the
//! log-format break in DESIGN.md).

use phoebe_common::ids::{Gsn, Lsn, RowId, TableId, Xid};
use phoebe_storage::schema::Value;
use phoebe_wal::{crc32, RecordBody, WalRecord};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/wal_records.hex")
}

/// One record per body variant, together covering every value tag
/// (I64, I32, F64, Str) and both empty and multi-entry tuples/deltas.
fn golden_records() -> Vec<WalRecord> {
    let rec = |xid: u64, gsn: u64, lsn: u64, body: RecordBody| WalRecord {
        xid: Xid::from_start_ts(xid),
        gsn: Gsn(gsn),
        lsn: Lsn(lsn),
        body,
    };
    vec![
        rec(1, 10, 1, RecordBody::Begin),
        rec(
            1,
            11,
            2,
            RecordBody::Insert {
                table: TableId(3),
                row: RowId(42),
                tuple: vec![
                    Value::I64(-7),
                    Value::I32(1_000_000),
                    Value::F64(2.5),
                    Value::Str("phoebe".into()),
                ],
            },
        ),
        rec(
            1,
            12,
            3,
            RecordBody::Update {
                table: TableId(3),
                row: RowId(42),
                delta: vec![(0, Value::I64(i64::MAX)), (3, Value::Str(String::new()))],
            },
        ),
        rec(2, 13, 4, RecordBody::Delete { table: TableId(u32::MAX), row: RowId(u64::MAX) }),
        rec(1, 14, 5, RecordBody::Commit { cts: 99 }),
        rec(2, 15, 6, RecordBody::Abort),
        // Degenerate shapes: empty tuple insert and empty delta update.
        rec(3, 16, 7, RecordBody::Insert { table: TableId(0), row: RowId(0), tuple: vec![] }),
        rec(3, 17, 8, RecordBody::Update { table: TableId(0), row: RowId(0), delta: vec![] }),
        // A group-commit round's closing marker.
        WalRecord::round_end(18),
    ]
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(line: &str) -> Vec<u8> {
    assert!(line.len().is_multiple_of(2), "odd hex line length");
    (0..line.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex digit"))
        .collect()
}

#[test]
fn wal_record_encoding_matches_golden_fixture() {
    let records = golden_records();
    let encoded: Vec<String> = records
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            r.encode_into(&mut buf);
            to_hex(&buf)
        })
        .collect();

    let path = fixture_path();
    if std::env::var("PHOEBE_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded.join("\n") + "\n").unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let fixture = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let golden: Vec<&str> = fixture.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(golden.len(), encoded.len(), "fixture record count");
    for (i, (want, got)) in golden.iter().zip(&encoded).enumerate() {
        assert_eq!(
            got, want,
            "record {i} ({:?}) no longer encodes to its pinned bytes — \
             this is an on-disk log format break",
            records[i].body
        );
    }
}

#[test]
fn golden_fixture_decodes_back_to_the_records() {
    if std::env::var("PHOEBE_REGEN_FIXTURES").is_ok() {
        return;
    }
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture");
    let records = golden_records();
    // Decode each line independently and the concatenation as one log.
    let mut log = Vec::new();
    for (i, line) in fixture.lines().filter(|l| !l.is_empty()).enumerate() {
        let bytes = from_hex(line);
        // Frame integrity: the stored CRC must match the payload.
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(bytes.len(), 8 + len, "record {i}: frame length");
        assert_eq!(crc, crc32(&bytes[8..]), "record {i}: stored CRC");
        let (rec, next) = WalRecord::decode_at(&bytes, 0).unwrap().expect("one record");
        assert_eq!(rec, records[i], "record {i} round-trip");
        assert_eq!(next, bytes.len(), "record {i} consumes the whole frame");
        log.extend_from_slice(&bytes);
    }
    let mut at = 0;
    let mut decoded = Vec::new();
    while let Some((rec, next)) = WalRecord::decode_at(&log, at).unwrap() {
        decoded.push(rec);
        at = next;
    }
    assert_eq!(decoded, records, "concatenated log decodes to the full set");
}
