//! Determinism regression for the morsel-parallel executor: the same query
//! executed repeatedly at 4 threads must return **byte-identical** result
//! sets and WorkCounters every single time — and identical to the serial
//! batch executor. Thread scheduling varies freely between runs, so any
//! nondeterministic merge ordering (join pair emission, per-worker
//! aggregation-state merges, sort-chunk merges, filter selection splices)
//! shows up here as a flaky diff. A tiny morsel size forces dozens of
//! morsels per operator even at test scale.

use qpe_htap::engine::HtapSystem;
use qpe_htap::exec::{execute_parallel, vector, ExecConfig, Row, WorkCounters};
use qpe_htap::opt::{ap, PlannerCtx};
use qpe_htap::tpch::TpchConfig;
use qpe_sql::binder::BoundQuery;

const REPEATS: usize = 16;

/// Queries covering every parallel merge path: filter splices, typed and
/// generic hash-join partitions, grouped aggregation (float SUM/AVG — the
/// association-order-sensitive folds), full sort, and top-N.
const QUERIES: [&str; 5] = [
    // scan + filter + typed hash join + scalar agg
    "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey AND o_totalprice > 1000",
    // grouped aggregation with float sums and HAVING
    "SELECT c_nationkey, COUNT(*), SUM(c_acctbal), AVG(c_acctbal) FROM customer \
     GROUP BY c_nationkey HAVING COUNT(*) > 2 ORDER BY c_nationkey",
    // top-N over a filtered scan
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderstatus = 'o' \
     ORDER BY o_totalprice DESC LIMIT 25",
    // full sort (no limit) + projection
    "SELECT c_name, c_acctbal FROM customer WHERE c_custkey < 200 ORDER BY c_acctbal",
    // 3-way join with filters on every input
    "SELECT COUNT(*) FROM customer, nation, orders \
     WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey AND c_acctbal > 0",
];

fn ap_plan(sys: &HtapSystem, sql: &str) -> (qpe_htap::PlanNode, BoundQuery) {
    let db = sys.database();
    let bound = sys.bind(sql).expect("binds");
    let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
    let plan = ap::plan(&ctx).expect("ap plan");
    assert!(vector::supported(&plan), "AP plan outside batch vocabulary for {sql}");
    (plan, bound)
}

fn dirty_system() -> HtapSystem {
    let sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
    // Leave customer dirty (delta rows + tombstones) so morsels straddle
    // the base/delta split and the live-rid selection is non-trivial.
    for i in 0..40 {
        sys.execute_statement(&format!(
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES ({}, 'customer#par{i}', {}, '20-000-000-0000', {}.75, \
             'machinery')",
            800_000 + i,
            i % 25,
            i * 13 % 5000
        ))
        .expect("insert");
    }
    sys.execute_statement("DELETE FROM customer WHERE c_custkey BETWEEN 10 AND 25")
        .expect("delete");
    sys.execute_statement("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey < 8")
        .expect("update");
    assert!(sys.freshness("customer").unwrap().delta_rows > 0, "table must be dirty");
    sys
}

/// 16 runs at 4 threads: every run byte-identical to the first and to the
/// serial batch executor, rows and counters alike.
#[test]
fn repeated_parallel_runs_are_byte_identical() {
    let sys = dirty_system();
    let db = sys.database();
    let cfg = ExecConfig { threads: 4, morsel_rows: 16, ..ExecConfig::serial() };
    for sql in QUERIES {
        let (plan, bound) = ap_plan(&sys, sql);
        let (serial_rows, serial_counters): (Vec<Row>, WorkCounters) =
            execute_parallel(&plan, &bound, &db, &ExecConfig::serial()).expect("serial batch");
        for run in 0..REPEATS {
            let (rows, counters) =
                execute_parallel(&plan, &bound, &db, &cfg).expect("parallel");
            assert_eq!(
                serial_rows, rows,
                "run {run}: parallel rows diverged from serial for {sql}"
            );
            assert_eq!(
                serial_counters, counters,
                "run {run}: parallel counters diverged from serial for {sql}"
            );
        }
    }
}

/// The thread count itself must not matter: 2, 3, 4 and 8 workers over
/// deliberately odd morsel sizes all reproduce the serial result.
#[test]
fn thread_count_and_morsel_size_are_invisible() {
    let sys = dirty_system();
    let db = sys.database();
    for sql in QUERIES {
        let (plan, bound) = ap_plan(&sys, sql);
        let (serial_rows, serial_counters) =
            execute_parallel(&plan, &bound, &db, &ExecConfig::serial()).expect("serial batch");
        for threads in [2usize, 3, 4, 8] {
            for morsel_rows in [7usize, 33, 256] {
                let cfg = ExecConfig { threads, morsel_rows, ..ExecConfig::serial() };
                let (rows, counters) =
                    execute_parallel(&plan, &bound, &db, &cfg).expect("parallel");
                assert_eq!(
                    serial_rows, rows,
                    "rows diverged at {threads} threads / {morsel_rows}-row morsels for {sql}"
                );
                assert_eq!(
                    serial_counters, counters,
                    "counters diverged at {threads} threads / {morsel_rows}-row morsels for {sql}"
                );
            }
        }
    }
}

/// System-level determinism: a parallel-configured HtapSystem returns the
/// same outcome (rows, counters, simulated latency) on every repetition,
/// and the dual-engine agreement check stays green.
#[test]
fn parallel_system_runs_are_stable_end_to_end() {
    let mut sys = dirty_system();
    sys.set_exec_config(ExecConfig { threads: 4, morsel_rows: 16, ..ExecConfig::serial() });
    let sql = "SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer \
               GROUP BY c_mktsegment ORDER BY c_mktsegment";
    let first = sys.run_sql(sql).expect("runs");
    for _ in 0..REPEATS {
        let again = sys.run_sql(sql).expect("runs");
        assert_eq!(first.ap.rows, again.ap.rows);
        assert_eq!(first.ap.counters, again.ap.counters);
        assert_eq!(first.ap.latency_ns, again.ap.latency_ns);
    }
}
