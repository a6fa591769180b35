//! End-to-end server tests: results over the wire must be **byte-identical**
//! to the in-process session API — rows, WorkCounters, simulated latencies —
//! and every governance error (`Cancelled`, `Timeout`, `MemoryBudget`,
//! `ReadOnly`) must round-trip as a *typed* error frame, not a string.
//! Plus the network-only concerns: admission control (`Busy` rejections),
//! out-of-band cancel, result-chunk streaming, the `Stats` frame, and
//! graceful shutdown draining in-flight statements.

use qpe_htap::engine::DurabilityOptions;
use qpe_htap::storage::FailPoints;
use qpe_htap::tpch::TpchConfig;
use qpe_htap::{EngineKind, HtapError, HtapSystem, RetryPolicy, Session};
use qpe_server::client::{Client, ClientError, ConnectOptions};
use qpe_server::protocol::{BusyWhat, EnginePref, SqlStage, WireError, MAX_FRAME_LEN};
use qpe_server::server::{Server, ServerConfig};
use qpe_sql::catalog::DataType;
use qpe_sql::value::Value;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Unique temp directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("qpe_server_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TmpDir(path)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(scale: f64, config: ServerConfig) -> (Server, SocketAddr, Arc<HtapSystem>) {
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(scale)));
    let server = Server::start(Arc::clone(&sys), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    (server, addr, sys)
}

/// The query/param matrix both sides execute: point lookup, pruned range
/// aggregate, join group-by, and an ORDER BY projection.
fn cases() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        (
            "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = ?",
            vec![Value::Int(17)],
        ),
        (
            "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey BETWEEN ? AND ?",
            vec![Value::Int(40), Value::Int(180)],
        ),
        (
            "SELECT c_nationkey, COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey \
             AND c_mktsegment = ? GROUP BY c_nationkey ORDER BY c_nationkey",
            vec![Value::Str("machinery".into())],
        ),
        (
            "SELECT c_custkey, c_name FROM customer WHERE c_nationkey = ? \
             ORDER BY c_acctbal DESC LIMIT 10",
            vec![Value::Int(7)],
        ),
    ]
}

/// Tentpole equivalence: N concurrent wire clients, each running the full
/// case matrix dual-run, TP-pinned and AP-pinned, every result compared
/// field-by-field against an in-process session on an identically-seeded
/// system — rows, counters, and simulated latencies all byte-identical.
#[test]
fn wire_results_are_byte_identical_to_in_process() {
    let (_server, addr, _sys) = start(0.002, ServerConfig::default());
    // The oracle runs in-process on its own identically-generated system.
    let oracle_sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002)));

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let oracle_sys = Arc::clone(&oracle_sys);
            std::thread::spawn(move || {
                let oracle = Session::new(oracle_sys);
                let mut client = Client::connect(addr).expect("connect");
                for (sql, params) in cases() {
                    let stmt = oracle.prepare(sql).expect("oracle prepare");
                    let want = stmt.execute(&params).expect("oracle execute");
                    let want = want.as_query().expect("query case");

                    let remote = client.prepare(sql).expect("wire prepare");
                    assert_eq!(remote.param_types, stmt.param_types().to_vec());

                    // Dual-run over the wire: winner engine, both latencies,
                    // TP counters, TP rows (both engines' rows agree).
                    let got = client.execute(remote.stmt_id, &params).expect("wire execute");
                    let q = got.rows().expect("rows outcome");
                    assert!(q.dual);
                    assert_eq!(q.rows, want.tp.rows, "dual rows diverged: {sql}");
                    assert_eq!(q.counters, want.tp.counters, "dual counters diverged: {sql}");
                    assert_eq!(q.engine, want.winner());
                    assert_eq!(q.tp_latency_ns, want.tp.latency_ns);
                    assert_eq!(q.ap_latency_ns, want.ap.latency_ns);

                    // Pinned runs match the corresponding dual-run side.
                    for (pref, engine) in
                        [(EnginePref::Tp, EngineKind::Tp), (EnginePref::Ap, EngineKind::Ap)]
                    {
                        let got = client
                            .execute_pref(remote.stmt_id, pref, &params)
                            .expect("pinned execute");
                        let q = got.rows().expect("rows outcome");
                        let side = match engine {
                            EngineKind::Tp => &want.tp,
                            EngineKind::Ap => &want.ap,
                        };
                        assert!(!q.dual);
                        assert_eq!(q.engine, engine);
                        assert_eq!(q.rows, side.rows, "pinned rows diverged: {sql}");
                        assert_eq!(q.counters, side.counters, "pinned counters diverged: {sql}");
                    }
                }
                client.goodbye().expect("goodbye");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
}

/// DML over the wire: parameterized INSERT/UPDATE/DELETE land identically
/// to the in-process twin — same rows_affected, same counters, and the
/// post-state SELECT returns identical rows.
#[test]
fn wire_dml_matches_in_process() {
    let (_server, addr, _sys) = start(0.002, ServerConfig::default());
    let oracle_sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002)));
    let oracle = Session::new(oracle_sys);
    let mut client = Client::connect(addr).expect("connect");

    let steps: Vec<(&str, Vec<Value>)> = vec![
        (
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES (?, ?, ?, '20-000-000-0000', ?, 'machinery')",
            vec![
                Value::Int(910_001),
                Value::Str("wire#1".into()),
                Value::Int(3),
                Value::Float(12.5),
            ],
        ),
        (
            "UPDATE customer SET c_acctbal = ? WHERE c_custkey BETWEEN ? AND ?",
            vec![Value::Float(77.25), Value::Int(10), Value::Int(30)],
        ),
        ("DELETE FROM customer WHERE c_custkey = ?", vec![Value::Int(55)]),
    ];
    for (sql, params) in steps {
        let want_stmt = oracle.prepare(sql).expect("oracle prepare");
        let want = want_stmt.execute(&params).expect("oracle dml");
        let want = want.as_dml().expect("dml case");

        let remote = client.prepare(sql).expect("wire prepare");
        let got = client.execute(remote.stmt_id, &params).expect("wire dml");
        let got = got.dml().expect("dml outcome");
        assert_eq!(got.rows_affected, want.result.rows_affected, "{sql}");
        assert_eq!(got.counters, want.counters, "{sql}");
        assert_eq!(got.latency_ns, want.latency_ns, "{sql}");
    }

    // Post-state equivalence.
    let probe = "SELECT c_custkey, c_name, c_acctbal FROM customer \
                 WHERE c_custkey BETWEEN 1 AND 920000 ORDER BY c_custkey";
    let want = oracle.execute_sql(probe).expect("oracle probe");
    let remote = client.prepare(probe).expect("wire prepare");
    let got = client.execute(remote.stmt_id, &[]).expect("wire probe");
    assert_eq!(got.rows().expect("rows").rows, want.as_query().expect("query").tp.rows);
    client.goodbye().expect("goodbye");
}

/// Front-end and parameter errors arrive as structured frames with their
/// payloads intact.
#[test]
fn sql_and_param_errors_round_trip_typed() {
    let (_server, addr, _sys) = start(0.0005, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Parse error: stage + position survive.
    match client.prepare("SELEC oops") {
        Err(ClientError::Server(WireError::Sql { stage, .. })) => {
            assert!(matches!(stage, SqlStage::Parse | SqlStage::Lex), "stage {stage:?}")
        }
        other => panic!("expected typed Sql error, got {other:?}"),
    }

    let stmt = client
        .prepare("SELECT c_name FROM customer WHERE c_custkey = ?")
        .expect("prepare");
    assert_eq!(stmt.param_types, vec![Some(DataType::Int)]);

    match client.execute(stmt.stmt_id, &[]) {
        Err(ClientError::Server(WireError::ParamCountMismatch { expected: 1, got: 0 })) => {}
        other => panic!("expected ParamCountMismatch, got {other:?}"),
    }
    match client.execute(stmt.stmt_id, &[Value::Str("not-an-int".into())]) {
        Err(ClientError::Server(WireError::ParamTypeMismatch { idx: 0, expected, got })) => {
            assert_eq!(expected, DataType::Int);
            assert_eq!(got, Value::Str("not-an-int".into()));
        }
        other => panic!("expected ParamTypeMismatch, got {other:?}"),
    }

    // Statement bookkeeping errors.
    match client.execute(999, &[]) {
        Err(ClientError::Server(WireError::UnknownStatement { stmt_id: 999 })) => {}
        other => panic!("expected UnknownStatement, got {other:?}"),
    }
    match client.fetch(10) {
        Err(ClientError::Server(WireError::NoCursor)) => {}
        other => panic!("expected NoCursor, got {other:?}"),
    }

    // The connection stays fully usable after every statement error.
    let out = client.execute(stmt.stmt_id, &[Value::Int(5)]).expect("recovered execute");
    assert!(out.rows().is_some());
    client.goodbye().expect("goodbye");
}

/// `Hello`-negotiated limits govern the session's statements, and the
/// resulting `Timeout` / `MemoryBudget` errors round-trip with their
/// numeric payloads.
#[test]
fn negotiated_limits_trip_typed_governance_errors() {
    let (_server, addr, _sys) = start(0.002, ServerConfig::default());

    // A 1 ns deadline trips at the first governance check.
    let mut strict = Client::connect_with(
        addr,
        &ConnectOptions {
            timeout: Some(Duration::from_nanos(1)),
            ..ConnectOptions::default()
        },
    )
    .expect("connect");
    let stmt = strict.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    match strict.execute(stmt.stmt_id, &[]) {
        Err(ClientError::Server(WireError::Timeout { limit })) => {
            assert_eq!(limit, Duration::from_nanos(1));
        }
        other => panic!("expected typed Timeout, got {other:?}"),
    }
    strict.goodbye().expect("goodbye");

    // A 16-byte budget trips on the first materialization charge.
    let mut tiny = Client::connect_with(
        addr,
        &ConnectOptions {
            memory_budget: Some(16),
            ..ConnectOptions::default()
        },
    )
    .expect("connect");
    let stmt = tiny.prepare("SELECT c_name FROM customer").expect("prepare");
    match tiny.execute(stmt.stmt_id, &[]) {
        Err(ClientError::Server(WireError::MemoryBudget { budget_bytes, attempted_bytes })) => {
            assert_eq!(budget_bytes, 16);
            assert!(attempted_bytes > 16);
        }
        other => panic!("expected typed MemoryBudget, got {other:?}"),
    }
    tiny.goodbye().expect("goodbye");

    // Server-side caps clamp what the client asked for: a permissive client
    // request still runs under the server's 1 ns ceiling.
    let (_capped_server, capped_addr, _s) = start(
        0.002,
        ServerConfig {
            max_statement_timeout: Some(Duration::from_nanos(1)),
            ..ServerConfig::default()
        },
    );
    let mut capped = Client::connect_with(
        capped_addr,
        &ConnectOptions {
            timeout: Some(Duration::from_secs(3600)),
            ..ConnectOptions::default()
        },
    )
    .expect("connect");
    let stmt = capped.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    match capped.execute(stmt.stmt_id, &[]) {
        Err(ClientError::Server(WireError::Timeout { limit })) => {
            assert_eq!(limit, Duration::from_nanos(1), "server cap wins");
        }
        other => panic!("expected capped Timeout, got {other:?}"),
    }
}

/// Read-only degraded mode crosses the wire typed: writes fail with
/// `ReadOnly { cause }`, reads keep serving, and the `Stats` frame folds in
/// the health snapshot.
#[test]
fn degraded_mode_round_trips_and_shows_in_stats() {
    let dir = TmpDir::new("degraded");
    let cfg = TpchConfig::with_scale(0.0005);
    let fp = FailPoints::default();
    let sys = Arc::new(
        HtapSystem::open_with(
            &dir.0,
            &cfg,
            DurabilityOptions {
                failpoints: fp.clone(),
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                },
                ..DurabilityOptions::default()
            },
        )
        .expect("open"),
    );
    let server = Server::start(Arc::clone(&sys), "127.0.0.1:0", ServerConfig::default())
        .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Trip degraded mode: a WAL fault that outlives the retry budget.
    fp.arm_errors("wal", u32::MAX);
    let insert = "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                  c_mktsegment) VALUES (?, 'x', 1, '20-000-000-0000', 1.5, 'machinery')";
    let stmt = client.prepare(insert).expect("prepare");
    let first = client.execute(stmt.stmt_id, &[Value::Int(930_001)]);
    assert!(first.is_err(), "exhausted retries must surface");

    match client.execute(stmt.stmt_id, &[Value::Int(930_002)]) {
        Err(ClientError::Server(WireError::ReadOnly { cause })) => {
            assert!(cause.contains("wal"), "cause names the site: {cause}");
        }
        other => panic!("expected typed ReadOnly, got {other:?}"),
    }

    // Reads keep serving over the same connection.
    let read = client.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    assert!(client.execute(read.stmt_id, &[]).is_ok());

    // The Stats frame folds in the health state.
    let stats = client.stats().expect("stats");
    assert!(stats.degraded);
    assert!(stats.degraded_cause.contains("wal"), "cause: {}", stats.degraded_cause);
    assert!(stats.errors_sent >= 2);
    client.goodbye().expect("goodbye");
}

/// Out-of-band cancel: a second connection armed with the first's
/// `(conn_id, secret)` stops its in-flight statement, which surfaces as a
/// typed `Cancelled` frame; the victim connection stays usable. Wrong
/// credentials match nothing.
#[test]
fn cancel_over_the_wire_lands_typed() {
    let (_server, addr, _sys) = start(0.004, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let (conn_id, secret) = client.cancel_credentials();

    // Wrong secret: no match, no effect.
    assert!(!Client::cancel_other(addr, conn_id, secret ^ 1).expect("cancel rpc"));

    let sql = "SELECT c_nationkey, COUNT(*), SUM(c_acctbal), AVG(c_acctbal) \
               FROM customer, orders WHERE o_custkey = c_custkey \
               GROUP BY c_nationkey ORDER BY c_nationkey";
    let stmt = client.prepare(sql).expect("prepare");

    // The cancel must land while the statement is in flight; sweep the
    // delay until one does (the same pattern the in-process cancel test
    // uses — a cancel that lands between statements is cleared at the next
    // statement's start and the execution legitimately succeeds).
    let mut cancelled = false;
    for attempt in 0..80u64 {
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(attempt * 120));
            Client::cancel_other(addr, conn_id, secret).expect("cancel rpc")
        });
        let out = client.execute(stmt.stmt_id, &[]);
        let matched = canceller.join().expect("canceller");
        assert!(matched, "credentials must match the live connection");
        match out {
            Err(ClientError::Server(WireError::Cancelled)) => {
                cancelled = true;
                break;
            }
            Ok(_) => {} // cancel landed between statements; retry
            other => panic!("cancellation must surface as Cancelled, got {other:?}"),
        }
    }
    assert!(cancelled, "no cancel landed in-flight across the delay sweep");

    // The victim connection runs the next statement clean.
    let next = client.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    assert!(client.execute(next.stmt_id, &[]).is_ok());
    client.goodbye().expect("goodbye");
}

/// Admission control: over-cap connections are told `Busy` and turned
/// away; over-cap statements get `Busy` on a connection that stays usable.
#[test]
fn admission_control_rejects_with_typed_busy() {
    // Connection cap of 1: the second connect gets Busy{Connections}.
    let (server, addr, _sys) = start(
        0.0005,
        ServerConfig { max_connections: 1, ..ServerConfig::default() },
    );
    let client = Client::connect(addr).expect("first connect");
    match Client::connect(addr).map(|_| ()) {
        Err(ClientError::Server(WireError::Busy { what: BusyWhat::Connections, limit: 1 })) => {}
        other => panic!("expected Busy(connections), got {other:?}"),
    }
    assert!(qpe_server::stats::ServerStats::get(&server.stats().connections_rejected) >= 1);
    client.goodbye().expect("goodbye");

    // Statement cap of 0: every execute is rejected, the connection lives.
    let (_server2, addr2, _sys2) = start(
        0.0005,
        ServerConfig { max_inflight_statements: 0, ..ServerConfig::default() },
    );
    let mut c2 = Client::connect(addr2).expect("connect");
    let stmt = c2.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    match c2.execute(stmt.stmt_id, &[]) {
        Err(ClientError::Server(WireError::Busy { what: BusyWhat::Statements, limit: 0 })) => {}
        other => panic!("expected Busy(statements), got {other:?}"),
    }
    let stats = c2.stats().expect("stats frame still served");
    assert!(stats.statements_rejected >= 1);
    c2.goodbye().expect("goodbye");
}

/// Result-chunk streaming: a capped first chunk plus `Fetch` continuations
/// reassemble exactly the rows a one-shot execute returns; the drained
/// cursor then reports `NoCursor`.
#[test]
fn fetch_streams_chunks_losslessly() {
    let (_server, addr, _sys) = start(0.002, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let sql = "SELECT c_custkey, c_name FROM customer ORDER BY c_custkey";
    let stmt = client.prepare(sql).expect("prepare");

    let all = client.execute(stmt.stmt_id, &[]).expect("one-shot");
    let all = all.rows().expect("rows").rows.clone();
    assert!(all.len() > 25, "need a multi-chunk result, got {} rows", all.len());

    let (first, mut more) = client
        .execute_chunked(stmt.stmt_id, EnginePref::Default, 10, &[])
        .expect("chunked execute");
    let mut rebuilt = first.rows().expect("rows").rows.clone();
    assert_eq!(rebuilt.len(), 10);
    assert!(more);
    while more {
        let (chunk, m) = client.fetch(7).expect("fetch");
        rebuilt.extend(chunk);
        more = m;
    }
    assert_eq!(rebuilt, all, "chunked reassembly must be lossless");

    match client.fetch(5) {
        Err(ClientError::Server(WireError::NoCursor)) => {}
        other => panic!("drained cursor must report NoCursor, got {other:?}"),
    }
    client.goodbye().expect("goodbye");
}

/// The `Stats` frame reports real work at both scopes.
#[test]
fn stats_frame_reports_server_and_session_counters() {
    let (_server, addr, _sys) = start(0.0005, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let stmt = client.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    client.execute(stmt.stmt_id, &[]).expect("execute");
    client.execute(stmt.stmt_id, &[]).expect("execute");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.connections_active, 1);
    assert!(stats.connections_accepted >= 1);
    assert_eq!(stats.statements_executed, 2);
    assert_eq!(stats.session_statements, 2);
    assert_eq!(stats.session_rows, 2, "two COUNT(*) result rows");
    assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
    assert!(stats.session_bytes_read > 0 && stats.session_bytes_written > 0);
    assert!(!stats.degraded);
    client.goodbye().expect("goodbye");
}

/// Graceful shutdown: stops accepting, cancels in-flight statements (the
/// client sees a typed `Cancelled` or a completed result, never a hang),
/// and drains cleanly.
#[test]
fn shutdown_cancels_inflight_and_drains() {
    let (mut server, addr, _sys) = start(0.004, ServerConfig::default());
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let sql = "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) \
                   FROM customer, orders WHERE o_custkey = c_custkey \
                   GROUP BY c_nationkey ORDER BY c_nationkey";
        let stmt = client.prepare(sql).expect("prepare");
        // Drive executions until shutdown interrupts one (typed Cancelled)
        // or the connection is closed out from under us (clean I/O error).
        loop {
            match client.execute(stmt.stmt_id, &[]) {
                Ok(_) => continue,
                Err(ClientError::Server(WireError::Cancelled)) => return "cancelled",
                Err(ClientError::Io(_)) | Err(ClientError::Frame(_)) => return "disconnected",
                Err(e) => panic!("unexpected shutdown-path error: {e}"),
            }
        }
    });

    std::thread::sleep(Duration::from_millis(60));
    server.shutdown();
    let outcome = worker.join().expect("worker");
    assert!(
        outcome == "cancelled" || outcome == "disconnected",
        "draining must end the client loop, got {outcome}"
    );

    // The listener is gone: new connections are refused.
    assert!(Client::connect(addr).is_err(), "shutdown must stop accepting");
}

/// A client that sends a partial frame (header plus a few payload bytes)
/// and goes silent must not pin its handler thread — and therefore
/// `Server::shutdown`, which joins all handlers — forever. The mid-frame
/// read is abandoned after a bounded drain window once stop is raised.
#[test]
fn shutdown_is_not_blocked_by_a_stalled_partial_frame() {
    let (server, addr, _sys) = start(0.0005, ServerConfig::default());
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let mut partial = Vec::new();
    partial.extend_from_slice(&100u32.to_le_bytes()); // claims 100 payload bytes
    partial.extend_from_slice(&0u32.to_le_bytes());
    partial.extend_from_slice(&[0u8; 10]); // ...delivers 10, then silence
    stalled.write_all(&partial).expect("partial write");
    // Let the handler enter the mid-payload read before shutting down.
    std::thread::sleep(Duration::from_millis(150));

    let (tx, rx) = std::sync::mpsc::channel();
    let shutter = std::thread::spawn(move || {
        let mut server = server;
        server.shutdown();
        tx.send(()).expect("send");
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown must not hang on a stalled partial frame");
    shutter.join().expect("shutdown thread");
    drop(stalled);
}

/// The per-connection prepared-statement map is bounded: past the cap,
/// `Prepare` earns a typed `Busy` and `CloseStmt` frees a slot.
#[test]
fn prepared_statement_cap_rejects_with_typed_busy() {
    let (_server, addr, _sys) = start(
        0.0005,
        ServerConfig { max_prepared_statements: 2, ..ServerConfig::default() },
    );
    let mut client = Client::connect(addr).expect("connect");
    let s1 = client.prepare("SELECT COUNT(*) FROM customer").expect("prepare 1");
    let _s2 = client
        .prepare("SELECT c_name FROM customer WHERE c_custkey = ?")
        .expect("prepare 2");
    match client.prepare("SELECT c_acctbal FROM customer WHERE c_custkey = ?") {
        Err(ClientError::Server(WireError::Busy {
            what: BusyWhat::PreparedStatements,
            limit: 2,
        })) => {}
        other => panic!("expected Busy(prepared statements), got {other:?}"),
    }
    // Closing a handle frees a slot; the connection stays fully usable.
    client.close_stmt(s1.stmt_id).expect("close");
    let s3 = client
        .prepare("SELECT c_acctbal FROM customer WHERE c_custkey = ?")
        .expect("prepare after close");
    assert!(client.execute(s3.stmt_id, &[Value::Int(1)]).is_ok());
    client.goodbye().expect("goodbye");
}

/// Chunks are bounded by encoded byte size, not just row count: a result
/// whose default-sized chunk would exceed the frame cap streams through
/// in smaller chunks instead of poisoning the connection.
#[test]
fn wide_rows_chunk_by_bytes_not_just_row_count() {
    let (_server, addr, _sys) = start(0.0005, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let insert = client
        .prepare(
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES (?, ?, 1, '20-000-000-0000', 0.0, 'machinery')",
        )
        .expect("prepare insert");
    let wide = "w".repeat(1 << 20); // 1 MiB per row
    for i in 0..20 {
        client
            .execute(insert.stmt_id, &[Value::Int(940_000 + i), Value::Str(wide.clone())])
            .expect("insert wide row");
    }
    // ~20 MiB of row data in under 1024 rows: a row-count-only chunker
    // would encode one > MAX_FRAME_LEN frame and poison the stream.
    let select = client
        .prepare("SELECT c_custkey, c_name FROM customer WHERE c_custkey >= ? ORDER BY c_custkey")
        .expect("prepare select");
    let out = client.execute(select.stmt_id, &[Value::Int(940_000)]).expect("wide select");
    let rows = &out.rows().expect("rows").rows;
    assert_eq!(rows.len(), 20);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(940_000 + i as i64));
        assert_eq!(row[1], Value::Str(wide.clone()));
    }
    client.goodbye().expect("goodbye");
}

/// A single row whose encoding exceeds the frame cap cannot be delivered
/// at all — it must surface as a typed error on a connection that stays
/// usable, never as an oversized frame the client rejects.
#[test]
fn an_unframeable_row_is_a_typed_error_not_a_poisoned_stream() {
    let (_server, addr, sys) = start(0.0005, ServerConfig::default());
    // Only an in-process session can create such a row: the wire itself
    // refuses to send any frame past the cap.
    let session = Session::new(Arc::clone(&sys));
    let giant = "g".repeat(MAX_FRAME_LEN as usize + 1024);
    let stmt = session
        .prepare(
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES (?, ?, 1, '20-000-000-0000', 0.0, 'machinery')",
        )
        .expect("prepare");
    stmt.execute(&[Value::Int(950_001), Value::Str(giant)]).expect("insert giant row");

    let mut client = Client::connect(addr).expect("connect");
    let select = client
        .prepare("SELECT c_name FROM customer WHERE c_custkey = ?")
        .expect("prepare");
    match client.execute(select.stmt_id, &[Value::Int(950_001)]) {
        Err(ClientError::Server(WireError::Exec(m))) => {
            assert!(m.contains("frame cap"), "message: {m}");
        }
        other => panic!("expected typed Exec error, got {other:?}"),
    }
    // The error replaced the unsendable frame; the connection survives.
    let count = client.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    assert!(client.execute(count.stmt_id, &[]).is_ok());
    client.goodbye().expect("goodbye");
}

/// A `ReadOnly` error mapped from a real `HtapError` through the server's
/// conversion matches what the engine reports in-process (sanity-check of
/// the From impl over a live error, not a hand-built one).
#[test]
fn wire_error_conversion_matches_engine_error() {
    let sys = HtapSystem::new(&TpchConfig::with_scale(0.0005));
    let err = sys
        .execute_statement("INSERT INTO nosuch (a) VALUES (1)")
        .expect_err("must fail");
    let wire = WireError::from(&err);
    match (&err, &wire) {
        (HtapError::Sql(_), WireError::Sql { stage: SqlStage::Bind, .. }) => {}
        other => panic!("bind error must map to Sql/Bind, got {other:?}"),
    }
}
