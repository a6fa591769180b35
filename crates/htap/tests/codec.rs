//! The binary codec's contract, seen from outside the crate the way the
//! WAL, the segment files and the wire protocol use it: every layout round
//! trips, and malformed bytes are a `DecodeError`, never a panic.

use qpe_htap::exec::WorkCounters;
use qpe_htap::storage::codec::{decode, encode, encoded_row_len, MAX_DEPTH};
use qpe_htap::{wire_enum, wire_struct};
use qpe_sql::value::Value;

#[test]
fn primitives_round_trip() {
    let v = (
        (7u8, (0xDEAD_BEEFu32, u64::MAX - 1)),
        (
            (-42i64, -7i32),
            (2.5f64, ("héllo".to_string(), (true, usize::MAX))),
        ),
    );
    assert_eq!(decode::<_>(&encode(&v)), Ok(v));
}

#[test]
fn rows_round_trip_at_their_encoded_length() {
    let row = vec![
        Value::Null,
        Value::Int(i64::MIN),
        Value::Float(-0.0),
        Value::Str("naïve x'y\"z".into()),
        Value::Date(-1),
    ];
    let bytes = encode(&row);
    assert_eq!(bytes.len(), encoded_row_len(&row));
    let back: Vec<Value> = decode(&bytes).unwrap();
    assert_eq!(encode(&back), bytes);
}

#[test]
fn counters_round_trip() {
    let c = WorkCounters {
        rows_scanned: 1,
        cells_scanned: 2,
        index_probes: 3,
        index_fetches: 4,
        filter_evals: 5,
        nlj_pairs: 6,
        hash_build_rows: 7,
        hash_probe_rows: 8,
        sort_comparisons: 9,
        topn_pushes: 10,
        agg_rows: 11,
        output_rows: 12,
        rows_inserted: 13,
        rows_updated: 14,
        rows_deleted: 15,
        index_updates: 16,
        blocks_checked: 17,
        blocks_pruned: 18,
    };
    assert_eq!(decode::<WorkCounters>(&encode(&c)).unwrap(), c);
}

#[test]
fn malformed_input_errors_instead_of_panicking() {
    // Truncated string.
    let mut bytes = encode(&"hello".to_string());
    bytes.truncate(6);
    assert!(decode::<String>(&bytes).is_err());
    // A count past the bytes that remain (4 billion items from 4 bytes).
    assert!(decode::<Vec<u64>>(&u32::MAX.to_le_bytes()).is_err());
    // Unknown value tag.
    assert!(decode::<Value>(&[9]).unwrap_err().0.contains("value tag"));
    // Invalid UTF-8.
    assert!(decode::<String>(&[2, 0, 0, 0, 0xFF, 0xFE]).is_err());
    // A bool byte other than 0 or 1.
    assert!(decode::<bool>(&[2]).unwrap_err().0.contains("bool"));
    // Trailing bytes.
    assert!(decode::<u8>(&[1, 2]).unwrap_err().0.contains("trailing"));
}

wire_enum! {
    /// A chain of boxes, as deep as its bytes say.
    #[derive(Debug)]
    enum Chain("link") {
        0 => End,
        1 => Link(Box<Chain>),
    }
}

#[test]
fn boxes_nest_only_so_deep() {
    let chain = |depth: usize| {
        let mut bytes = vec![1u8; depth];
        bytes.push(0);
        bytes
    };
    assert!(decode::<Chain>(&chain(MAX_DEPTH as usize)).is_ok());
    let err = decode::<Chain>(&chain(MAX_DEPTH as usize + 1)).unwrap_err();
    assert!(err.0.contains("nest"), "{err}");
    assert!(decode::<Chain>(&[2])
        .unwrap_err()
        .0
        .contains("unknown link 2"));
}

wire_struct! {
    /// Two lists under one count.
    #[derive(Debug, PartialEq)]
    struct Runs {
        ends: Vec<u32>,
        vals: Vec<i64> [= ends],
        tag: u8,
    }
}

#[test]
fn lists_sharing_a_count_write_it_once() {
    let runs = Runs {
        ends: vec![2, 5],
        vals: vec![-1, 9],
        tag: 3,
    };
    let bytes = encode(&runs);
    assert_eq!(bytes.len(), 4 + 2 * 4 + 2 * 8 + 1);
    assert_eq!(decode::<Runs>(&bytes), Ok(runs));
}
