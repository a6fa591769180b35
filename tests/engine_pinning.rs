//! Engine pinning ≡ dual-run equivalence: a read executed on **one**
//! pinned engine — via a session-level [`Session::pin_engine`], or a
//! prepared statement's `execute_on` — must
//! return rows, WorkCounters and simulated latency byte-identical to the
//! same engine's side of a dual run. Pinning skips the other engine's
//! execution and the cross-engine agreement check; it must never change
//! what the pinned engine computes. DML is TP-only on every path, so a
//! pinned session's writes behave exactly like an unpinned one's.

use qpe_htap::engine::{EngineKind, EngineRun, HtapSystem, StatementOutcome};
use qpe_htap::session::Session;
use qpe_htap::tpch::TpchConfig;
use qpe_sql::value::Value;
use std::sync::{Arc, OnceLock};

fn system() -> &'static Arc<HtapSystem> {
    static SYS: OnceLock<Arc<HtapSystem>> = OnceLock::new();
    SYS.get_or_init(|| Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002))))
}

/// The read matrix: point lookup, pruned range aggregate, join group-by,
/// ORDER BY + LIMIT, and a parameterized case for the prepared paths.
fn queries() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        ("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 25", vec![]),
        (
            "SELECT COUNT(*), SUM(c_acctbal), MIN(c_acctbal) FROM customer \
             WHERE c_custkey BETWEEN 50 AND 200",
            vec![],
        ),
        (
            "SELECT c_nationkey, COUNT(*), AVG(c_acctbal) FROM customer, orders \
             WHERE o_custkey = c_custkey GROUP BY c_nationkey ORDER BY c_nationkey",
            vec![],
        ),
        (
            "SELECT c_custkey, c_name FROM customer WHERE c_mktsegment = 'machinery' \
             ORDER BY c_acctbal DESC LIMIT 15",
            vec![],
        ),
        (
            "SELECT c_name FROM customer WHERE c_custkey = ? OR c_nationkey = ?",
            vec![Value::Int(77), Value::Int(3)],
        ),
    ]
}

/// A system with uncompacted INSERT/UPDATE/DELETE on `customer` and
/// `orders`: delta rows and tombstones, so every AP side reads a pinned
/// snapshot that differs from the clean base.
fn dirty_system() -> &'static Arc<HtapSystem> {
    static SYS: OnceLock<Arc<HtapSystem>> = OnceLock::new();
    SYS.get_or_init(|| {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
        for i in 0..30i64 {
            sys.execute_statement(&format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES ({}, 'dirty#{i}', {}, '20-000-000-0000', {}.5, \
                 'machinery')",
                930_000 + i,
                i % 25,
                200 + i
            ))
            .expect("insert");
        }
        sys.execute_statement("UPDATE customer SET c_acctbal = c_acctbal + 7 WHERE c_custkey < 60")
            .expect("update");
        sys.execute_statement("DELETE FROM customer WHERE c_custkey BETWEEN 100 AND 130")
            .expect("delete");
        sys.execute_statement("DELETE FROM orders WHERE o_orderkey < 40").expect("delete");
        let fresh = sys.freshness("customer").expect("freshness");
        assert!(fresh.delta_rows > 0 && fresh.deleted_rows > 0, "must be dirty");
        Arc::new(sys)
    })
}

/// Asserts `got` is exactly `want`: same engine, rows, counters, latency.
fn assert_same_run(got: &EngineRun, want: &EngineRun, what: &str) {
    assert_eq!(got.engine, want.engine, "{what}: engine");
    assert_eq!(got.rows, want.rows, "{what}: rows diverged");
    assert_eq!(got.counters, want.counters, "{what}: counters diverged");
    assert_eq!(got.latency_ns, want.latency_ns, "{what}: latency diverged");
}

/// Every read entry point returns exactly `run_sql`'s side(s) — rows,
/// counters, latency — for both engines, across the matrix, on a clean and
/// on a dirty system: `run_engine_with_plan(explain(..))`,
/// `execute_statement`, `Session::execute_sql` (unpinned and pinned), and a
/// prepared statement's `execute`, `execute_on` and `execute_dual_with`.
#[test]
fn execute_on_matches_the_dual_run_side() {
    for (label, sys) in [("clean", system()), ("dirty", dirty_system())] {
        let session = Session::new(Arc::clone(sys));
        let pinned_session = Session::new(Arc::clone(sys));
        let limits = sys.statement_limits().clone();
        for (sql, params) in queries() {
            if !params.is_empty() {
                continue; // run_sql takes literal SQL only
            }
            let dual = sys.run_sql(sql).expect("dual run");
            let stmt = session.prepare(sql).expect("prepare");
            let duals = [
                ("execute_statement", sys.execute_statement(sql).expect("statement")),
                ("Session::execute_sql", session.execute_sql(sql).expect("session")),
                ("prepared execute", stmt.execute(&[]).expect("prepared")),
                ("execute_dual_with", stmt.execute_dual_with(&[], &limits).expect("dual_with")),
            ];
            for (entry, out) in &duals {
                let q = out.as_query().expect("dual outcome");
                assert_same_run(&q.tp, &dual.tp, &format!("{label} {entry} TP: {sql}"));
                assert_same_run(&q.ap, &dual.ap, &format!("{label} {entry} AP: {sql}"));
            }
            let bound = sys.bind(sql).expect("bind");
            for engine in [EngineKind::Tp, EngineKind::Ap] {
                let side = dual.run(engine);
                let what = |entry: &str| format!("{label} {entry} on {engine:?}: {sql}");
                let plan = sys.explain(&bound, engine).expect("explain");
                let run = sys.run_engine_with_plan(plan, &bound, engine).expect("with_plan");
                assert_same_run(&run, side, &what("run_engine_with_plan"));
                pinned_session.pin_engine(Some(engine));
                for (entry, out) in [
                    (
                        "pinned Session::execute_sql",
                        pinned_session.execute_sql(sql).expect("pinned session"),
                    ),
                    ("prepared execute_on", stmt.execute_on(engine, &[]).expect("pinned")),
                ] {
                    let pinned = out.as_pinned().expect("pinned outcome");
                    assert_same_run(&pinned.run, side, &what(entry));
                    // rows() accessor agrees across outcome variants.
                    assert_eq!(out.rows().expect("rows"), &side.rows[..]);
                }
            }
        }
    }
}

/// Prepared statements under a pinned session: the pin routes every
/// execution (including ones prepared before the pin), results match the
/// corresponding dual side, and unpinning restores dual-run outcomes.
#[test]
fn session_pin_routes_prepared_statements() {
    let session = Session::new(Arc::clone(system()));
    for (sql, params) in queries() {
        let stmt = session.prepare(sql).expect("prepare");
        assert!(stmt.is_query());

        // Baseline dual run through the same prepared statement.
        session.pin_engine(None);
        let dual = stmt.execute(&params).expect("dual");
        let dual = dual.as_query().expect("dual outcome");

        for engine in [EngineKind::Tp, EngineKind::Ap] {
            session.pin_engine(Some(engine));
            assert_eq!(session.engine_pin(), Some(engine));
            let out = stmt.execute(&params).expect("pinned");
            let pinned = out.as_pinned().expect("session pin must route to PinnedQuery");
            let side = match engine {
                EngineKind::Tp => &dual.tp,
                EngineKind::Ap => &dual.ap,
            };
            assert_eq!(pinned.run.engine, engine);
            assert_eq!(pinned.run.rows, side.rows, "rows diverged: {sql} on {engine:?}");
            assert_eq!(
                pinned.run.counters, side.counters,
                "counters diverged: {sql} on {engine:?}"
            );

            // Explicit per-call pinning agrees with the session pin.
            let explicit = stmt.execute_on(engine, &params).expect("execute_on");
            let explicit = explicit.as_pinned().expect("pinned outcome");
            assert_eq!(explicit.run.rows, pinned.run.rows);
            assert_eq!(explicit.run.counters, pinned.run.counters);
        }

        // Unpin: back to dual-run outcomes.
        session.pin_engine(None);
        assert_eq!(session.engine_pin(), None);
        let again = stmt.execute(&params).expect("dual again");
        assert!(again.as_query().is_some(), "unpinned statement must dual-run");
    }
}

/// DML through a pinned session is unaffected (TP-only on every path):
/// same outcome shape, same rows_affected, and the write is visible to
/// both engines afterwards.
#[test]
fn pinned_sessions_write_normally() {
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.0005)));
    let session = Session::new(Arc::clone(&sys));
    session.pin_engine(Some(EngineKind::Ap));

    let out = session
        .execute_sql(
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES (940001, 'pinned', 1, '20-000-000-0000', 3.5, 'machinery')",
        )
        .expect("pinned insert");
    match out {
        StatementOutcome::Dml(d) => assert_eq!(d.result.rows_affected, 1),
        other => panic!("DML must stay a Dml outcome under a pin, got {other:?}"),
    }

    // The write is visible on both engines (checked by an unpinned dual
    // run, whose agreement check would catch a divergence).
    session.pin_engine(None);
    let check = session
        .execute_sql("SELECT c_name FROM customer WHERE c_custkey = 940001")
        .expect("dual read-back");
    let q = check.as_query().expect("query");
    assert_eq!(q.tp.rows, vec![vec![Value::Str("pinned".into())]]);
}

/// Pinned execution skips the other engine: an AP-pinned aggregate does no
/// TP row-store scanning and vice versa (the counters prove the other
/// engine never ran, which is the whole point of pinning).
#[test]
fn pinning_skips_the_other_engines_work() {
    let sys = system();
    let sql = "SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey";
    let dual = sys.run_sql(sql).expect("dual");
    assert!(dual.tp.counters.rows_scanned > 0, "TP side scans rows");
    assert!(dual.ap.counters.cells_scanned > 0, "AP side scans cells");

    let session = Session::new(Arc::clone(sys));
    session.pin_engine(Some(EngineKind::Tp));
    let tp = session.execute_sql(sql).expect("tp pinned");
    let tp = tp.as_pinned().expect("pinned");
    assert_eq!(tp.run.counters.cells_scanned, 0, "TP pin must not touch the column store");

    session.pin_engine(Some(EngineKind::Ap));
    let ap = session.execute_sql(sql).expect("ap pinned");
    let ap = ap.as_pinned().expect("pinned");
    assert_eq!(ap.run.counters.rows_scanned, 0, "AP pin must not touch the row store");
}
