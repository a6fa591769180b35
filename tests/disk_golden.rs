//! Golden disk bytes: one segment file and one WAL file, both written by the
//! storage codec, must decode to the expected table or records and then
//! re-encode byte for byte. A change to either on-disk layout fails here
//! before it can strand the files an earlier build left behind.
//!
//! The segment holds every `ColumnData` representation (tags 0–9), a live
//! delta, tombstones and a block-rows override; the WAL holds one record of
//! each kind. Rewrite the files only for a change that means to alter the
//! on-disk layout, with `cargo test --test disk_golden -- --ignored`.

use qpe_htap::storage::col_store::{ColRef, ColumnData, ColumnTable};
use qpe_htap::storage::durable_io::FailPoints;
use qpe_htap::storage::persist::{read_segment, write_segment};
use qpe_htap::storage::wal::{read_wal_file, WalRecord};
use qpe_htap::storage::{DurabilityError, TableOp};
use qpe_sql::value::Value;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn segment_path() -> PathBuf {
    golden_dir().join("disk.seg")
}

fn wal_path() -> PathBuf {
    golden_dir().join("disk.wal")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpe_disk_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// A table whose base lands on every encoded representation, with a plain
/// delta behind it, two tombstones and a pinned block size.
fn golden_table() -> ColumnTable {
    let n = 128;
    let runs: Vec<Value> = (0..n).map(|i| Value::Int((i / 32) as i64)).collect();
    let floats: Vec<Value> = (0..n).map(|i| Value::Float(i as f64 / 2.0 - 7.0)).collect();
    let date_runs: Vec<Value> = (0..n).map(|i| Value::Date(i / 64 - 3)).collect();
    let dict: Vec<Value> = (0..n)
        .map(|i| Value::Str(["aa", "bé", ""][(i % 3) as usize].to_string()))
        .collect();
    let strs: Vec<Value> = (0..n).map(|i| Value::Str(format!("s{i}"))).collect();
    let nullable: Vec<Value> = (0..n)
        .map(|i| if i % 7 == 0 { Value::Null } else { Value::Int(i as i64 - 60) })
        .collect();
    let mixed: Vec<Value> = (0..n)
        .map(|i| match i % 4 {
            0 => Value::Int(i as i64),
            1 => Value::Str("x".into()),
            2 => Value::Null,
            _ => Value::Date(-i),
        })
        .collect();
    let narrow: Vec<Value> = (0..n).map(|i| Value::Int((i * 13 % 97) as i64)).collect();
    let mut t = ColumnTable::from_columns(
        "golden",
        &[runs, floats, date_runs, dict, strs, nullable, mixed, narrow],
    );
    t.set_block_rows(48);
    t.insert(&[
        Value::Int(i64::MIN),
        Value::Float(-0.0),
        Value::Date(77),
        Value::Str("dd".into()),
        Value::Str("tail".into()),
        Value::Null,
        Value::Float(1.5),
        Value::Int(i64::MAX),
    ]);
    t.insert(&[
        Value::Int(5),
        Value::Float(f64::MAX),
        Value::Date(-1),
        Value::Str("aa".into()),
        Value::Str(String::new()),
        Value::Int(9),
        Value::Null,
        Value::Int(0),
    ]);
    t.delete(3);
    t.delete(60);
    t.delete(128);
    t
}

/// One record of each WAL kind, carrying every value tag.
fn golden_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Op {
            table: "orders".into(),
            op: TableOp::Insert {
                rows: vec![
                    vec![
                        Value::Int(-42),
                        Value::Float(2.5),
                        Value::Str("naïve".into()),
                        Value::Date(9501),
                        Value::Null,
                    ],
                    vec![],
                ],
            },
        },
        WalRecord::Op { table: "orders".into(), op: TableOp::Delete { rids: vec![0, 7, u32::MAX] } },
        WalRecord::Op {
            table: "lineitem".into(),
            op: TableOp::Update {
                changes: vec![
                    (3, vec![Value::Int(i64::MAX), Value::Str(String::new())]),
                    (9, vec![Value::Float(-0.0)]),
                ],
            },
        },
        WalRecord::Compact { table: "orders".into() },
        WalRecord::Checkpoint { version: 17 },
    ]
}

/// The segment-file tag of a column representation.
fn tag(c: &ColumnData) -> u8 {
    match c {
        ColumnData::Int(_) => 0,
        ColumnData::Float(_) => 1,
        ColumnData::Str(_) => 2,
        ColumnData::Date(_) => 3,
        ColumnData::Dict(_) => 4,
        ColumnData::RleInt(_) => 5,
        ColumnData::RleDate(_) => 6,
        ColumnData::Nullable { .. } => 7,
        ColumnData::Mixed(_) => 8,
        ColumnData::ForInt(_) => 9,
    }
}

/// Every representation a table stores, base and delta, nested ones too.
fn tags(t: &ColumnTable) -> Vec<u8> {
    let mut out = Vec::new();
    for ci in 0..t.width() {
        let parts = match t.column_ref(ci) {
            ColRef::Single(c) => vec![c],
            ColRef::Chunked { base, delta } => vec![base, delta],
        };
        for c in parts {
            out.push(tag(c));
            if let ColumnData::Nullable { values, .. } = c {
                out.push(tag(values));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn assert_tables_identical(a: &ColumnTable, b: &ColumnTable) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.version(), b.version());
    assert_eq!(a.history_floor(), b.history_floor());
    assert_eq!(a.base_len(), b.base_len());
    assert_eq!(a.delta_len(), b.delta_len());
    assert_eq!(a.deleted_len(), b.deleted_len());
    assert_eq!(a.width(), b.width());
    assert_eq!(a.block_rows(), b.block_rows());
    assert_eq!(a.row_versions(), b.row_versions());
    assert_eq!(tags(a), tags(b));
    for ci in 0..a.width() {
        assert_eq!(tag(a.column(ci)), tag(b.column(ci)), "column {ci} representation");
        assert_eq!(a.zones(ci).len(), b.zones(ci).len(), "column {ci} zones");
        for rid in 0..a.physical_len() {
            assert_eq!(a.is_deleted(rid), b.is_deleted(rid), "rid {rid} visibility");
            assert_eq!(
                a.value(ci, rid).total_cmp(&b.value(ci, rid)),
                std::cmp::Ordering::Equal,
                "cell ({ci},{rid})"
            );
        }
    }
}

fn encode_records(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in records {
        r.encode(&mut buf).expect("encode record");
    }
    buf
}

#[test]
fn the_fixture_covers_every_column_tag() {
    assert_eq!(tags(&golden_table()), (0..=9).collect::<Vec<u8>>());
}

#[test]
fn golden_segment_decodes_and_reencodes_byte_for_byte() {
    let golden = std::fs::read(segment_path()).expect("tests/golden/disk.seg");
    let table = read_segment(&segment_path()).expect("golden segment decodes");
    assert_tables_identical(&table, &golden_table());
    assert_eq!(tags(&table), (0..=9).collect::<Vec<u8>>());
    // Both the decoded table and one built fresh in memory, delta builders
    // and all, must write the golden bytes.
    for (what, t) in [("re-encoded", table), ("freshly written", golden_table())] {
        let again = scratch("disk.seg");
        write_segment(&again, &t, FailPoints::default()).expect("write segment");
        let bytes = std::fs::read(&again).expect("read written segment");
        let _ = std::fs::remove_file(&again);
        assert!(bytes == golden, "the {what} segment differs from the golden bytes");
    }
}

#[test]
fn torn_or_tampered_segment_reads_as_corrupt_not_panic() {
    let path = scratch("torn.seg");
    let t = golden_table();
    // Torn write via the crash layer: only a prefix reaches disk.
    let fp = FailPoints::default();
    fp.arm_partial("seg", 1, 0.5);
    assert!(matches!(write_segment(&path, &t, fp), Err(DurabilityError::Crashed)));
    assert!(matches!(read_segment(&path), Err(DurabilityError::Corrupt(_))));
    // A full write with one flipped byte fails the checksum.
    write_segment(&path, &t, FailPoints::default()).expect("write");
    let mut bytes = std::fs::read(&path).expect("read bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("tamper");
    assert!(matches!(read_segment(&path), Err(DurabilityError::Corrupt(_))));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn golden_wal_decodes_and_reencodes_byte_for_byte() {
    let golden = std::fs::read(wal_path()).expect("tests/golden/disk.wal");
    // Replay truncates a torn tail in place, so it reads a copy.
    let copy = scratch("disk.wal");
    std::fs::write(&copy, &golden).expect("copy golden WAL");
    let out = read_wal_file(&copy).expect("golden WAL decodes");
    let _ = std::fs::remove_file(&copy);
    assert_eq!(out.truncated_bytes, 0);
    assert_eq!(out.records, golden_records());
    assert!(
        encode_records(&out.records) == golden,
        "the re-encoded WAL differs from the golden bytes"
    );
    assert!(
        encode_records(&golden_records()) == golden,
        "the freshly encoded WAL differs from the golden bytes"
    );
}

/// Rewrites both golden files from the current code. Ignored so that no
/// test run can bless a layout change by accident.
#[test]
#[ignore = "rewrites tests/golden/disk.seg and tests/golden/disk.wal"]
fn bless_disk_golden() {
    std::fs::create_dir_all(golden_dir()).expect("mkdir tests/golden");
    write_segment(&segment_path(), &golden_table(), FailPoints::default()).expect("write segment");
    std::fs::write(wal_path(), encode_records(&golden_records())).expect("write WAL");
}
