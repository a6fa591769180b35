//! Golden bytes of the wire protocol: every `ClientFrame`, `ServerFrame`
//! and `WireError` variant, every code table entry (`EnginePref`,
//! `EngineKind`, `SqlStage`, `BusyWhat`, each `DataType` tag and `None`),
//! every `Value` tag and a full set of counters, each with its payload
//! written out in hex.
//!
//! A round-trip test cannot see a layout change made to `encode` and
//! `decode` together; this one can. `encode` must give exactly these bytes
//! and `decode` of these bytes must give the frame back. The hex is grouped
//! by field (whitespace is ignored) so a failing case reads against the
//! frame tables in the crate README.

use qpe_htap::exec::WorkCounters;
use qpe_htap::EngineKind;
use qpe_server::protocol::{
    BusyWhat, ClientFrame, EnginePref, ServerFrame, SqlStage, StatsSnapshot, WireError,
};
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex digit count in {s:?}");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).expect("hex digit"))
        .collect()
}

/// Checks every case and reports all mismatches at once, each with the
/// bytes the encoder gave.
fn check<F: PartialEq + std::fmt::Debug>(
    cases: Vec<(F, &str)>,
    encode: impl Fn(&F) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<F, qpe_server::FrameError>,
) {
    let mut failures = Vec::new();
    for (frame, golden) in &cases {
        let want = unhex(golden);
        let got = encode(frame);
        if got != want {
            let (want, got) = (hex(&want), hex(&got));
            failures.push(format!("encode {frame:?}\n  want {want}\n  got  {got}"));
        }
        match decode(&want) {
            Ok(back) if back == *frame => {}
            other => {
                let bytes = hex(&want);
                failures.push(format!("decode {bytes}\n  want {frame:?}\n  got  {other:?}"));
            }
        }
    }
    let n = failures.len();
    assert!(n == 0, "{n} golden mismatch(es):\n{}", failures.join("\n"));
}

/// Every counter distinct and wider than one byte, so a swapped or dropped
/// field shows.
fn full_counters() -> WorkCounters {
    let f = |i: u64| i * 0x0101_0101_0101;
    WorkCounters {
        rows_scanned: f(1),
        cells_scanned: f(2),
        index_probes: f(3),
        index_fetches: f(4),
        filter_evals: f(5),
        nlj_pairs: f(6),
        hash_build_rows: f(7),
        hash_probe_rows: f(8),
        sort_comparisons: f(9),
        topn_pushes: f(10),
        agg_rows: f(11),
        output_rows: f(12),
        rows_inserted: f(13),
        rows_updated: f(14),
        rows_deleted: f(15),
        index_updates: f(16),
        blocks_checked: f(17),
        blocks_pruned: f(18),
    }
}

/// The counters' wire form: a `u8` field count, then the fields in order.
const FULL_COUNTERS: &str = "12 \
    0101010101010000 0202020202020000 0303030303030000 0404040404040000 \
    0505050505050000 0606060606060000 0707070707070000 0808080808080000 \
    0909090909090000 0a0a0a0a0a0a0000 0b0b0b0b0b0b0000 0c0c0c0c0c0c0000 \
    0d0d0d0d0d0d0000 0e0e0e0e0e0e0000 0f0f0f0f0f0f0000 1010101010100000 \
    1111111111110000 1212121212120000";

#[test]
fn client_frames_match_their_golden_bytes() {
    let hello = |engine| ClientFrame::Hello {
        version: 1,
        timeout_ns: 5_000_000,
        memory_budget: 1 << 20,
        engine,
    };
    let cases = vec![
        (hello(EnginePref::Default), "01 0100 404b4c0000000000 0000100000000000 00"),
        (hello(EnginePref::Tp), "01 0100 404b4c0000000000 0000100000000000 01"),
        (hello(EnginePref::Ap), "01 0100 404b4c0000000000 0000100000000000 02"),
        (hello(EnginePref::Dual), "01 0100 404b4c0000000000 0000100000000000 03"),
        (
            ClientFrame::Prepare { sql: "SELECT ?".into() },
            "02 08000000 53454c454354203f",
        ),
        (
            ClientFrame::Execute {
                stmt_id: 7,
                engine: EnginePref::Dual,
                max_rows: 100,
                params: vec![
                    Value::Null,
                    Value::Int(-42),
                    Value::Float(2.5),
                    Value::Float(-0.0),
                    Value::Str("naïve".into()),
                    Value::Date(9501),
                ],
            },
            "03 07000000 03 64000000 0600 \
             00 \
             01 d6ffffffffffffff \
             02 0000000000000440 \
             02 0000000000000080 \
             03 06000000 6e61c3af7665 \
             04 1d250000",
        ),
        (
            ClientFrame::Execute {
                stmt_id: 1,
                engine: EnginePref::Default,
                max_rows: 0,
                params: vec![],
            },
            "03 01000000 00 00000000 0000",
        ),
        (ClientFrame::Fetch { max_rows: 2048 }, "04 00080000"),
        (ClientFrame::CloseStmt { stmt_id: 3 }, "05 03000000"),
        (
            ClientFrame::Cancel { conn_id: 11, secret: u64::MAX },
            "06 0b00000000000000 ffffffffffffffff",
        ),
        (ClientFrame::Stats, "07"),
        (ClientFrame::Goodbye, "08"),
    ];
    check(cases, ClientFrame::encode, ClientFrame::decode);
}

#[test]
fn server_frames_match_their_golden_bytes() {
    let stats = StatsSnapshot {
        connections_accepted: 1,
        connections_rejected: 2,
        connections_active: 3,
        statements_executed: 4,
        statements_rejected: 5,
        cancels_matched: 6,
        protocol_errors: 7,
        errors_sent: 8,
        bytes_read: 9,
        bytes_written: 10,
        session_statements: 11,
        session_rows: 12,
        session_bytes_read: 13,
        session_bytes_written: 14,
        degraded: true,
        degraded_cause: "wal".into(),
        writer_panics: 15,
        wal_flush_retries: 16,
    };
    let rows_frame = format!(
        "82 01 00 7b00000000000000 0000000000000000 {FULL_COUNTERS} 0300000000000000 \
         02000000 \
         02000000 01 0100000000000000 00 \
         03000000 02 000000000000e03f 03 01000000 78 04 ffffffff \
         01"
    );
    let dml_frame = format!("83 0500000000000000 e703000000000000 {FULL_COUNTERS}");
    let cases = vec![
        (
            ServerFrame::HelloOk { conn_id: 3, secret: 0xDEAD_BEEF, version: 1 },
            "80 0300000000000000 efbeadde00000000 0100",
        ),
        (
            ServerFrame::Prepared {
                stmt_id: 1,
                param_types: vec![
                    Some(DataType::Int),
                    Some(DataType::Float),
                    Some(DataType::Str),
                    Some(DataType::Date),
                    None,
                ],
            },
            "81 01000000 0500 00 01 02 03 ff",
        ),
        (
            ServerFrame::Rows {
                engine: EngineKind::Tp,
                dual: false,
                tp_latency_ns: 123,
                ap_latency_ns: 0,
                counters: full_counters(),
                total_rows: 3,
                rows: vec![
                    vec![Value::Int(1), Value::Null],
                    vec![Value::Float(0.5), Value::Str("x".into()), Value::Date(-1)],
                ],
                more: true,
            },
            &rows_frame,
        ),
        (
            ServerFrame::Rows {
                engine: EngineKind::Ap,
                dual: true,
                tp_latency_ns: 1,
                ap_latency_ns: 2,
                counters: WorkCounters::default(),
                total_rows: 0,
                rows: vec![],
                more: false,
            },
            "82 02 01 0100000000000000 0200000000000000 \
             12 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 \
             0000000000000000 00000000 00",
        ),
        (
            ServerFrame::DmlOk {
                rows_affected: 5,
                latency_ns: 999,
                counters: full_counters(),
            },
            &dml_frame,
        ),
        (
            ServerFrame::RowsChunk { rows: vec![vec![], vec![Value::Int(-1)]], more: false },
            "84 02000000 00000000 01000000 01 ffffffffffffffff 00",
        ),
        (ServerFrame::Closed { stmt_id: 9 }, "85 09000000"),
        (ServerFrame::CancelOk { matched: true }, "86 01"),
        (ServerFrame::CancelOk { matched: false }, "86 00"),
        (
            ServerFrame::StatsReply(Box::new(stats)),
            "87 0100000000000000 0200000000000000 0300000000000000 0400000000000000 \
             0500000000000000 0600000000000000 0700000000000000 0800000000000000 \
             0900000000000000 0a00000000000000 0b00000000000000 0c00000000000000 \
             0d00000000000000 0e00000000000000 01 03000000 77616c \
             0f00000000000000 1000000000000000",
        ),
        (ServerFrame::GoodbyeOk, "88"),
    ];
    check(cases, ServerFrame::encode, ServerFrame::decode);
}

#[test]
fn error_frames_match_their_golden_bytes() {
    let sql = |stage| WireError::Sql { stage, pos: 17, message: "at".into() };
    let param_type = |expected| WireError::ParamTypeMismatch {
        idx: 1,
        expected,
        got: Value::Str("x".into()),
    };
    let cases = vec![
        (sql(SqlStage::Lex), "89 01 00 1100000000000000 02000000 6174"),
        (sql(SqlStage::Parse), "89 01 01 1100000000000000 02000000 6174"),
        (sql(SqlStage::Bind), "89 01 02 1100000000000000 02000000 6174"),
        (sql(SqlStage::Unsupported), "89 01 03 1100000000000000 02000000 6174"),
        (sql(SqlStage::ParamNotSupported), "89 01 04 1100000000000000 02000000 6174"),
        (WireError::Opt("no plan".into()), "89 02 07000000 6e6f20706c616e"),
        (WireError::Exec("bad".into()), "89 03 03000000 626164"),
        (
            WireError::EngineMismatch { sql: "S".into(), tp_rows: 1, ap_rows: 2 },
            "89 04 01000000 53 0100000000000000 0200000000000000",
        ),
        (
            WireError::ParamCountMismatch { expected: 2, got: 0 },
            "89 05 02000000 00000000",
        ),
        (param_type(DataType::Int), "89 06 01000000 00 03 01000000 78"),
        (param_type(DataType::Float), "89 06 01000000 01 03 01000000 78"),
        (param_type(DataType::Str), "89 06 01000000 02 03 01000000 78"),
        (param_type(DataType::Date), "89 06 01000000 03 03 01000000 78"),
        (WireError::Durability("io".into()), "89 07 02000000 696f"),
        (WireError::Cancelled, "89 08"),
        (
            WireError::Timeout { limit: Duration::from_millis(250) },
            "89 09 80b2e60e00000000",
        ),
        (
            WireError::MemoryBudget { budget_bytes: 64, attempted_bytes: 128 },
            "89 0a 4000000000000000 8000000000000000",
        ),
        (WireError::ReadOnly { cause: "wal".into() }, "89 0b 03000000 77616c"),
        (WireError::Internal("p".into()), "89 0c 01000000 70"),
        (
            WireError::Busy { what: BusyWhat::Connections, limit: 64 },
            "89 0d 00 40000000",
        ),
        (
            WireError::Busy { what: BusyWhat::Statements, limit: 32 },
            "89 0d 01 20000000",
        ),
        (
            WireError::Busy { what: BusyWhat::PreparedStatements, limit: 256 },
            "89 0d 02 00010000",
        ),
        (WireError::Protocol("op".into()), "89 0e 02000000 6f70"),
        (WireError::UnknownStatement { stmt_id: 12 }, "89 0f 0c000000"),
        (WireError::NoCursor, "89 10"),
    ];
    let cases = cases.into_iter().map(|(e, hex)| (ServerFrame::Error(e), hex)).collect();
    check(cases, ServerFrame::encode, ServerFrame::decode);
}
