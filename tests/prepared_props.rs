//! Prepared ≡ inlined equivalence: `prepare(sql)` + `execute(&params)` must
//! return **byte-identical rows and WorkCounters** to running the same SQL
//! with the literals inlined — across all three executors, on clean and
//! dirty (uncompacted post-DML) tables, on plan-cache miss and hit. Zone-map
//! pruning effectiveness (`blocks_pruned`) must match exactly, proving that
//! parameter injection below the planner re-specializes `ScanPruner`
//! conjunct extraction as well as literal planning does.
//!
//! Plus: a concurrency smoke test — N threads × disjoint sessions over one
//! shared `Arc<HtapSystem>`, executing prepared SELECTs with deterministic
//! results (the `&self` read-path contract).

use proptest::prelude::*;
use qpe_htap::engine::{EngineKind, HtapSystem};
use qpe_htap::exec::{execute_parallel, execute_scalar, ExecConfig};
use qpe_htap::session::Session;
use qpe_htap::tpch::TpchConfig;
use qpe_sql::value::Value;
use std::sync::{Arc, OnceLock};

fn clean_system() -> &'static Arc<HtapSystem> {
    static SYS: OnceLock<Arc<HtapSystem>> = OnceLock::new();
    SYS.get_or_init(|| Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002))))
}

/// A system with uncompacted DML: delta rows and tombstones on `customer`
/// and `orders`, so prepared scans read the encoded-base + delta + tombstone
/// path.
fn dirty_system() -> &'static Arc<HtapSystem> {
    static SYS: OnceLock<Arc<HtapSystem>> = OnceLock::new();
    SYS.get_or_init(|| {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
        for i in 0..40i64 {
            sys.execute_statement(&format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES ({}, 'delta#{i}', {}, '20-000-000-0000', {}.5, \
                 'machinery')",
                920_000 + i,
                i % 25,
                100 + i
            ))
            .expect("insert");
        }
        sys.execute_statement("DELETE FROM customer WHERE c_custkey BETWEEN 40 AND 60")
            .expect("delete");
        sys.execute_statement("UPDATE orders SET o_orderstatus = 'p' WHERE o_orderkey < 30")
            .expect("update");
        let fresh = sys.freshness("customer").expect("freshness");
        assert!(fresh.delta_rows > 0 && fresh.deleted_rows > 0, "must be dirty");
        Arc::new(sys)
    })
}

/// Renders a parameter value as a SQL literal (for the inlined twin).
fn lit(v: &Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        Value::Float(x) => {
            let s = x.to_string();
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => format!("'{s}'"),
        Value::Date(_) | Value::Null => unreachable!("not generated by the sweep"),
    }
}

/// One parameterized case: placeholder SQL plus concrete values.
fn case_strategy() -> impl Strategy<Value = (String, Vec<Value>)> {
    let segments = ["machinery", "building", "household", "automobile", "furniture", "nosuch"];
    prop_oneof![
        // TP index point lookup; keys beyond the table miss.
        (1i64..420).prop_map(|k| (
            "SELECT c_name FROM customer WHERE c_custkey = ?".to_string(),
            vec![Value::Int(k)],
        )),
        // PK BETWEEN range aggregate: the zone-map pruning showcase.
        (1i64..3000, 0i64..400).prop_map(|(lo, w)| (
            "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderkey BETWEEN ? AND ?"
                .to_string(),
            vec![Value::Int(lo), Value::Int(lo + w)],
        )),
        // String equality on a dictionary-encoded column.
        (0usize..6).prop_map(move |i| (
            "SELECT COUNT(*) FROM customer WHERE c_mktsegment = ?".to_string(),
            vec![Value::Str(segments[i].to_string())],
        )),
        // Param + literal IN list on one slot.
        (0i64..30).prop_map(|n| (
            "SELECT COUNT(*) FROM customer WHERE c_nationkey = ? \
             AND c_mktsegment IN ('machinery', 'building')"
                .to_string(),
            vec![Value::Int(n)],
        )),
        // Join with a parameterized range filter on the small (customer)
        // side: its filtered cardinality stays below the orders side for any
        // parameter value, so the greedy join order — the one plan decision
        // a cached generic plan freezes — is parameter-insensitive and the
        // prepared plan matches the inlined one structurally.
        (1i64..500).prop_map(|k| (
            "SELECT COUNT(*) FROM customer, orders \
             WHERE o_custkey = c_custkey AND c_custkey < ?"
                .to_string(),
            vec![Value::Int(k)],
        )),
        // Top-N with a parameterized filter.
        (1i64..400).prop_map(|k| (
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = ? \
             ORDER BY o_totalprice DESC LIMIT 5"
                .to_string(),
            vec![Value::Int(k)],
        )),
        // Float comparison (Int parameter widens like INSERT literals would).
        (0i64..200_000).prop_map(|cents| (
            "SELECT COUNT(*) FROM customer WHERE c_acctbal < ?".to_string(),
            vec![Value::Float(cents as f64 / 100.0)],
        )),
        // Grouped aggregate with a parameterized HAVING-side filter below.
        (0i64..25).prop_map(|n| (
            "SELECT c_mktsegment, COUNT(*) FROM customer WHERE c_nationkey <> ? \
             GROUP BY c_mktsegment ORDER BY c_mktsegment"
                .to_string(),
            vec![Value::Int(n)],
        )),
        // All-placeholder IN list probing the PK index (IndexLookup::Keys
        // with Param terms, lowered at execution like `c = ?` keys).
        (1i64..400, 1i64..400, 1i64..400).prop_map(|(a, b, c)| (
            "SELECT c_name FROM customer WHERE c_custkey IN (?, ?, ?)".to_string(),
            vec![Value::Int(a), Value::Int(b), Value::Int(c)],
        )),
        // Mixed literal/placeholder IN list on a dictionary-encoded string
        // column: substitution must reach the dictionary membership fast
        // path exactly like an inlined list.
        (0usize..6, 0usize..6).prop_map(move |(i, j)| (
            "SELECT COUNT(*) FROM customer WHERE c_mktsegment IN (?, 'building', ?)"
                .to_string(),
            vec![
                Value::Str(segments[i].to_string()),
                Value::Str(segments[j].to_string()),
            ],
        )),
        // NOT IN with placeholders (no index path; negated visibility).
        (0i64..25, 0i64..25).prop_map(|(a, b)| (
            "SELECT COUNT(*) FROM customer WHERE c_nationkey NOT IN (?, ?)".to_string(),
            vec![Value::Int(a), Value::Int(b)],
        )),
    ]
}

/// Substitutes `?` placeholders textually to build the inlined-literal twin.
fn inline_sql(template: &str, params: &[Value]) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut it = params.iter();
    for ch in template.chars() {
        if ch == '?' {
            out.push_str(&lit(it.next().expect("enough params")));
        } else {
            out.push(ch);
        }
    }
    assert!(it.next().is_none(), "all params consumed");
    out
}

/// The full equivalence check for one (template, params) case on one system.
fn assert_prepared_equals_inlined(sys: &Arc<HtapSystem>, template: &str, params: &[Value]) {
    let session = Session::new(Arc::clone(sys));
    let inlined = sys
        .run_sql(&inline_sql(template, params))
        .expect("inlined runs");

    // Twice: the first prepare may be a plan-cache miss, the second is
    // guaranteed to be a hit — both must behave identically.
    for attempt in ["miss", "hit"] {
        let stmt = session.prepare(template).expect("prepares");
        let out = stmt.execute(params).expect("prepared runs");
        let q = out.as_query().expect("is a query");
        assert_eq!(q.tp.rows, inlined.tp.rows, "TP rows diverged ({attempt}) for {template:?}");
        assert_eq!(q.ap.rows, inlined.ap.rows, "AP rows diverged ({attempt}) for {template:?}");
        assert_eq!(
            q.tp.counters, inlined.tp.counters,
            "TP counters diverged ({attempt}) for {template:?} {params:?}"
        );
        assert_eq!(
            q.ap.counters, inlined.ap.counters,
            "AP counters diverged ({attempt}) for {template:?} {params:?}"
        );
        // Zone-map pruning with bound parameters equals inlined literals.
        assert_eq!(
            q.ap.counters.blocks_pruned, inlined.ap.counters.blocks_pruned,
            "pruning effectiveness diverged for {template:?} {params:?}"
        );
        assert_eq!(q.tp.latency_ns, inlined.tp.latency_ns, "TP latency model input diverged");
        assert_eq!(q.ap.latency_ns, inlined.ap.latency_ns, "AP latency model input diverged");

        // All three executors agree on the substituted AP plan.
        let db = sys.database();
        let (s_rows, s_c) =
            execute_scalar(&q.ap.plan, &q.bound, &db, EngineKind::Ap).expect("scalar");
        assert_eq!(s_rows, q.ap.rows, "row interpreter diverged for {template:?}");
        assert_eq!(s_c, q.ap.counters, "row-interpreter counters diverged");
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig { threads, morsel_rows: 48, ..ExecConfig::serial() };
            let (b_rows, b_c) =
                execute_parallel(&q.ap.plan, &q.bound, &db, &cfg).expect("batch");
            assert_eq!(b_rows, q.ap.rows, "batch@{threads} diverged for {template:?}");
            assert_eq!(b_c, q.ap.counters, "batch@{threads} counters diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The sweep on a clean (fully compacted) system.
    #[test]
    fn prepared_equals_inlined_on_clean_tables((template, params) in case_strategy()) {
        assert_prepared_equals_inlined(clean_system(), &template, &params);
    }

    /// The sweep on a dirty system (delta rows + tombstones, stale zone-map
    /// headers): prepared reads go through the exact same delta-aware,
    /// conservatively-pruned path as inlined reads.
    #[test]
    fn prepared_equals_inlined_on_dirty_tables((template, params) in case_strategy()) {
        assert_prepared_equals_inlined(dirty_system(), &template, &params);
    }
}

/// Concurrency smoke test: N threads × one shared system, disjoint sessions,
/// prepared SELECTs only (`&self` all the way down), deterministic results.
#[test]
fn concurrent_prepared_selects_are_deterministic() {
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 25;
    let sys = Arc::clone(clean_system());
    // Expected answers computed single-threaded first.
    let expect: Vec<Vec<Vec<Value>>> = (1..=THREADS * PER_THREAD)
        .map(|k| {
            sys.run_sql(&format!("SELECT c_name FROM customer WHERE c_custkey = {k}"))
                .expect("runs")
                .tp
                .rows
        })
        .collect();
    let expect = Arc::new(expect);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sys = Arc::clone(&sys);
            let expect = Arc::clone(&expect);
            scope.spawn(move || {
                // Disjoint session per thread; disjoint key range per thread.
                let session = Session::new(sys);
                let stmt = session
                    .prepare("SELECT c_name FROM customer WHERE c_custkey = ?")
                    .expect("prepares");
                for i in 0..PER_THREAD {
                    let key = t * PER_THREAD + i + 1;
                    let out = stmt.execute(&[Value::Int(key)]).expect("executes");
                    let q = out.as_query().expect("query");
                    assert_eq!(q.tp.rows, expect[(key - 1) as usize], "key {key}");
                    assert_eq!(q.ap.rows, expect[(key - 1) as usize], "key {key}");
                }
            });
        }
    });

    let stats = sys.plan_cache_stats();
    assert!(stats.hits > 0, "threads share the plan cache: {stats:?}");
}

/// `LIMIT ?` / `OFFSET ?` genuinely change the plan shape (top-N heap vs
/// full sort is chosen by value), so they surface the structured
/// `ParamNotSupported` error — distinguishable from a malformed statement.
#[test]
fn limit_offset_params_surface_structured_error() {
    use qpe_htap::engine::HtapError;
    use qpe_sql::error::SqlError;
    let session = Session::new(Arc::clone(clean_system()));
    let cases = [
        ("SELECT c_name FROM customer ORDER BY c_custkey LIMIT ?", "LIMIT"),
        ("SELECT c_name FROM customer ORDER BY c_custkey LIMIT 5 OFFSET ?", "OFFSET"),
        ("SELECT c_name FROM customer ORDER BY c_custkey LIMIT $1", "LIMIT"),
    ];
    for (sql, want_clause) in cases {
        match session.prepare(sql) {
            Err(HtapError::Sql(SqlError::ParamNotSupported { clause })) => {
                assert_eq!(clause, want_clause, "for {sql:?}");
            }
            Err(other) => panic!("expected ParamNotSupported for {sql:?}, got {other:?}"),
            Ok(_) => panic!("expected ParamNotSupported for {sql:?}, got a prepared statement"),
        }
    }
}

/// Prepared DML interleaved with prepared reads through sessions over a
/// shared system — the write path locks internally, no `&mut` anywhere.
#[test]
fn prepared_dml_and_reads_share_one_system() {
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002)));
    let session = Session::new(Arc::clone(&sys));
    let insert = session
        .prepare("INSERT INTO region (r_regionkey, r_name) VALUES (?, ?)")
        .unwrap();
    let count = session.prepare("SELECT COUNT(*) FROM region").unwrap();
    let base = count.execute(&[]).unwrap().as_query().unwrap().tp.rows[0][0]
        .as_int()
        .unwrap();
    for i in 0..5i64 {
        insert
            .execute(&[Value::Int(70 + i), Value::Str(format!("r{i}"))])
            .unwrap();
        let now = count.execute(&[]).unwrap().as_query().unwrap().tp.rows[0][0]
            .as_int()
            .unwrap();
        assert_eq!(now, base + i + 1, "write visible to the very next read");
    }
    let delete = session
        .prepare("DELETE FROM region WHERE r_regionkey = ?")
        .unwrap();
    for i in 0..5i64 {
        let out = delete.execute(&[Value::Int(70 + i)]).unwrap();
        assert_eq!(out.as_dml().unwrap().result.rows_affected, 1);
    }
    let now = count.execute(&[]).unwrap().as_query().unwrap().tp.rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(now, base);
}
