//! Property-based cross-engine equivalence: for any generated query, the TP
//! and AP engines must return the same result — the foundational invariant
//! the whole explanation framework rests on (an engine can be slower, never
//! wrong).

use proptest::prelude::*;
use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
use qpe_htap::engine::HtapSystem;
use qpe_htap::tpch::TpchConfig;

fn system() -> &'static HtapSystem {
    use std::sync::OnceLock;
    static SYS: OnceLock<HtapSystem> = OnceLock::new();
    SYS.get_or_init(|| HtapSystem::new(&TpchConfig::with_scale(0.002)))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Any workload-generator query (any seed, any family mix) must run on
    /// both engines and agree. `run_sql` internally asserts result
    /// equivalence and errors with `EngineMismatch` otherwise.
    #[test]
    fn engines_agree_on_generated_queries(seed in 0u64..10_000, topn in 0.0f64..1.0) {
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            seed,
            top_n_fraction: topn,
        });
        let sql = gen.next_query();
        let out = system().run_sql(&sql);
        prop_assert!(out.is_ok(), "engines disagreed or failed on {sql}: {:?}",
            out.err().map(|e| e.to_string()));
    }

    /// Winner determination and speedup are consistent: speedup ≥ 1 and the
    /// winner's latency is the smaller one.
    #[test]
    fn winner_speedup_invariants(seed in 0u64..10_000) {
        let mut gen = WorkloadGenerator::new(WorkloadConfig { seed, ..Default::default() });
        let sql = gen.next_query();
        let out = system().run_sql(&sql).expect("runs");
        prop_assert!(out.speedup() >= 1.0);
        let w = out.run(out.winner());
        let l = out.run(out.winner().other());
        prop_assert!(w.latency_ns <= l.latency_ns);
    }

    /// Plan estimates stay finite and non-negative for arbitrary workload
    /// queries (cost-model totality).
    #[test]
    fn plan_estimates_are_sane(seed in 0u64..10_000) {
        let mut gen = WorkloadGenerator::new(WorkloadConfig { seed, ..Default::default() });
        let sql = gen.next_query();
        let out = system().run_sql(&sql).expect("runs");
        for plan in [&out.tp.plan, &out.ap.plan] {
            plan.walk(&mut |n| {
                assert!(n.total_cost.is_finite() && n.total_cost >= 0.0,
                    "bad cost {} at {:?} for {sql}", n.total_cost, n.node_type);
                assert!(n.plan_rows.is_finite() && n.plan_rows >= 0.0,
                    "bad rows {} at {:?} for {sql}", n.plan_rows, n.node_type);
            });
        }
    }

    /// LIMIT semantics: output row count never exceeds the limit.
    #[test]
    fn limit_bounds_output(seed in 0u64..10_000) {
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            seed,
            top_n_fraction: 1.0,
        });
        let sql = gen.next_query();
        let out = system().run_sql(&sql).expect("runs");
        if let Some(limit) = out.bound.limit {
            prop_assert!(out.tp.rows.len() as u64 <= limit);
            prop_assert!(out.ap.rows.len() as u64 <= limit);
        }
    }
}

// ---------------------------------------------------------------------------
// Row interpreter vs. batch executor at threads 1/2/4
// ---------------------------------------------------------------------------
//
// The AP engine's plans execute on the vectorized batch executor — serial at
// one thread, morsel-parallel above; the row interpreter remains the
// reference semantics.
// These tests pin the contract the latency model, the optimizer and the
// explainer all rely on: every execution mode returns *identical rows* and
// *identical WorkCounters* — simulated latencies, router features and
// explanations provably cannot depend on which executor (or how many
// threads) ran. The parallel runs force a tiny morsel size so even
// 300-row test tables split into many morsels and actually exercise the
// cross-thread merge paths.

mod scalar_vs_batch {
    use super::system;
    use qpe_htap::engine::EngineKind;
    use qpe_htap::exec::{execute_parallel, execute_scalar, vector, ExecConfig};
    use qpe_htap::opt::{ap, PlannerCtx};
    use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
    use proptest::prelude::*;

    /// A parallel config whose morsels are small enough that the test-scale
    /// tables split into many of them.
    fn par_cfg(threads: usize) -> ExecConfig {
        ExecConfig { threads, morsel_rows: 48, ..ExecConfig::serial() }
    }

    /// Runs `sql`'s AP plan through the row interpreter and the batch
    /// executor at 1 (serial), 2 and 4 threads, asserting rows and counters
    /// are identical across all four runs.
    fn assert_executors_agree(sql: &str) {
        let sys = system();
        let db = sys.database();
        let bound = sys.bind(sql).expect("binds");
        let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
        let plan = ap::plan(&ctx).expect("ap plan");
        assert!(
            vector::supported(&plan),
            "AP plan outside batch-executor vocabulary for {sql}"
        );
        let (scalar_rows, scalar_counters) =
            execute_scalar(&plan, &bound, &db, EngineKind::Ap).expect("scalar");
        for threads in [1, 2, 4] {
            let (batch_rows, batch_counters) =
                execute_parallel(&plan, &bound, &db, &par_cfg(threads)).expect("batch");
            assert_eq!(
                scalar_rows, batch_rows,
                "rows diverged at {threads} threads for {sql}"
            );
            assert_eq!(
                scalar_counters, batch_counters,
                "work counters diverged at {threads} threads for {sql}"
            );
        }
    }

    #[test]
    fn group_by_with_having_and_order() {
        assert_executors_agree(
            "SELECT c_nationkey, COUNT(*), AVG(c_acctbal) FROM customer \
             GROUP BY c_nationkey HAVING COUNT(*) > 5 ORDER BY c_nationkey",
        );
        assert_executors_agree(
            "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment \
             ORDER BY c_mktsegment",
        );
    }

    #[test]
    fn order_by_plus_limit_top_n() {
        assert_executors_agree(
            "SELECT o_orderkey, o_totalprice FROM orders \
             ORDER BY o_totalprice DESC LIMIT 10",
        );
        assert_executors_agree(
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5 OFFSET 10",
        );
        // Full sort (no limit) and projection-only shapes.
        assert_executors_agree("SELECT c_name FROM customer WHERE c_custkey < 25");
    }

    #[test]
    fn multi_join_with_filters() {
        assert_executors_agree(
            "SELECT COUNT(*) FROM customer, orders \
             WHERE o_custkey = c_custkey AND o_orderkey < 500",
        );
        assert_executors_agree(
            "SELECT COUNT(*) FROM customer, nation, orders \
             WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40', '22', '30', '39', '42', '21') \
             AND c_mktsegment = 'machinery' \
             AND n_name = 'egypt' AND o_orderstatus = 'p' \
             AND o_custkey = c_custkey AND n_nationkey = c_nationkey",
        );
        // Residual (non-equi) predicate above a cross join.
        assert_executors_agree(
            "SELECT COUNT(*) FROM nation, region WHERE n_regionkey < r_regionkey",
        );
    }

    /// Join shapes the generator never emits, each read by a different
    /// parent — the statements `tests/tp_work_golden.rs` pins on TP: string
    /// columns from both sides, `ORDER BY … LIMIT`, a residual over three
    /// tables, `GROUP BY` on an inner-side string, a filter reading both
    /// sides, a bare `LIMIT … OFFSET`, string `MIN`/`MAX` and
    /// `COUNT(DISTINCT …)`, a full sort, a filtered cross product, and
    /// `HAVING` with `ORDER BY`.
    #[test]
    fn join_shapes_agree_across_executors() {
        for sql in [
            "SELECT c_name, o_orderstatus, SUBSTRING(c_phone, 1, 2), o_totalprice - c_acctbal \
             FROM customer, orders WHERE o_custkey = c_custkey AND o_orderkey < 40",
            "SELECT o_orderkey, c_name FROM orders, customer \
             WHERE o_custkey = c_custkey AND c_mktsegment = 'machinery' \
             ORDER BY o_totalprice DESC LIMIT 7",
            "SELECT c_name, n_name, o_totalprice FROM customer, nation, orders \
             WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey \
             AND o_totalprice > c_acctbal * (n_regionkey + 1) AND o_orderkey < 300",
            "SELECT l_linestatus, COUNT(*), SUM(l_extendedprice), MIN(o_orderpriority) \
             FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderstatus = 'f' \
             GROUP BY l_linestatus",
            "SELECT COUNT(*), SUM(c_acctbal) FROM customer, orders \
             WHERE o_custkey = c_custkey AND o_totalprice < c_acctbal * 10",
            "SELECT n_name, s_name FROM supplier, nation \
             WHERE s_nationkey = n_nationkey LIMIT 5 OFFSET 2",
            "SELECT MIN(c_name), MAX(o_orderpriority), COUNT(DISTINCT c_mktsegment) \
             FROM customer, orders WHERE o_custkey = c_custkey AND o_orderkey < 500",
            "SELECT l_orderkey, l_extendedprice, o_orderstatus FROM orders, lineitem \
             WHERE l_orderkey = o_orderkey AND o_orderkey < 30 ORDER BY l_extendedprice",
            "SELECT r_name, n_name FROM nation, region WHERE n_regionkey < r_regionkey \
             ORDER BY n_name, r_name",
            "SELECT o_orderpriority, COUNT(*), AVG(l_discount) FROM orders, lineitem \
             WHERE l_orderkey = o_orderkey AND o_orderkey < 200 \
             GROUP BY o_orderpriority HAVING COUNT(*) > 2 ORDER BY o_orderpriority",
        ] {
            assert_executors_agree(sql);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The row interpreter vs batch at threads 1/2/4 sweep — run for
        /// BOTH the zone-map-pruned plan (scan-predicate pushdown, the
        /// default) and the unpruned plan: for any workload-generator query
        /// (random plans spanning joins, aggregates and top-N), the row
        /// interpreter and the batch executor at 1 (serial), 2 and 4
        /// threads must produce identical rows AND identical WorkCounters;
        /// the two plan flavors must also agree on rows with the pruned one
        /// never touching more cells.
        #[test]
        fn generated_queries_agree_across_executors(seed in 0u64..10_000, topn in 0.0f64..1.0) {
            let mut gen = WorkloadGenerator::new(WorkloadConfig { seed, top_n_fraction: topn });
            let sql = gen.next_query();
            let sys = system();
            let db = sys.database();
            let bound = sys.bind(&sql).expect("binds");
            let mut flavor_rows = Vec::new();
            let mut flavor_cells = Vec::new();
            for pruning in [true, false] {
                let mut ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
                ctx.pushdown = pruning;
                let plan = ap::plan(&ctx).expect("ap plan");
                prop_assert!(vector::supported(&plan), "unsupported AP plan for {}", sql);
                let (srows, sc) = execute_scalar(&plan, &bound, &db, EngineKind::Ap).expect("scalar");
                for threads in [1usize, 2, 4] {
                    let (brows, bc) =
                        execute_parallel(&plan, &bound, &db, &par_cfg(threads)).expect("batch");
                    prop_assert_eq!(&srows, &brows, "rows diverged at {} threads for {}", threads, sql);
                    prop_assert_eq!(sc, bc, "counters diverged at {} threads for {}", threads, sql);
                }
                flavor_cells.push(sc.cells_scanned);
                flavor_rows.push(srows);
            }
            prop_assert_eq!(&flavor_rows[0], &flavor_rows[1], "pruning changed rows for {}", sql);
            prop_assert!(
                flavor_cells[0] <= flavor_cells[1],
                "pruning increased cells for {}: {} vs {}", sql, flavor_cells[0], flavor_cells[1]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Forced-encoding matrix: every storage representation × bloom filters
// ---------------------------------------------------------------------------
//
// The compressed-execution kernels (dictionary-code equality/join/group-by,
// run-aware RLE comparisons, packed-domain FOR range checks) each fire only
// for their own representation — so the equivalence contract is checked with
// every representation *forced*, not just the ones the cost rules would
// pick. For each policy × bloom-filter setting, scalar ≡ batch at threads
// 1/2/4 rows and WorkCounters, and answers must match the Plain baseline.

mod forced_encodings {
    use qpe_htap::engine::{EngineKind, HtapSystem};
    use qpe_htap::exec::{execute_parallel, execute_scalar, vector, ExecConfig, Row};
    use qpe_htap::opt::{ap, PlannerCtx};
    use qpe_htap::storage::col_store::EncodingPolicy;
    use qpe_htap::tpch::TpchConfig;

    const TABLES: &[&str] = &["customer", "orders", "nation", "lineitem"];

    /// Queries chosen to route through each specialized kernel: dict
    /// equality + IN, FOR/RLE range predicates, dict-keyed group-by, two
    /// integer-keyed joins, and top-N.
    const QUERIES: &[&str] = &[
        "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'",
        "SELECT c_custkey FROM customer WHERE c_mktsegment IN ('building', 'household')",
        "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderkey < 700",
        "SELECT c_mktsegment, COUNT(*), AVG(c_acctbal) FROM customer \
         GROUP BY c_mktsegment ORDER BY c_mktsegment",
        "SELECT COUNT(*) FROM customer, orders \
         WHERE o_custkey = c_custkey AND o_totalprice > 1000.0",
        "SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem \
         WHERE l_orderkey = o_orderkey AND o_orderstatus = 'o'",
        "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 7",
    ];

    /// Row interpreter ≡ batch at 1 (serial), 2 and 4 threads, rows and
    /// counters, on whatever representations the system currently has.
    fn agreed_rows(sys: &HtapSystem, sql: &str, label: &str) -> Vec<Row> {
        let db = sys.database();
        let bound = sys.bind(sql).expect("binds");
        let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
        let plan = ap::plan(&ctx).expect("ap plan");
        assert!(vector::supported(&plan), "{label}: unsupported AP plan for {sql}");
        let (srows, sc) = execute_scalar(&plan, &bound, &db, EngineKind::Ap).expect("scalar");
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig { threads, morsel_rows: 48, ..ExecConfig::serial() };
            let (brows, bc) = execute_parallel(&plan, &bound, &db, &cfg).expect("batch");
            assert_eq!(srows, brows, "{label}: batch rows at {threads} threads for {sql}");
            assert_eq!(sc, bc, "{label}: batch counters at {threads} threads for {sql}");
        }
        srows
    }

    #[test]
    fn every_policy_and_bloom_setting_agrees_with_plain() {
        // Plain baseline answers (blooms are irrelevant to plain columns
        // but toggled anyway below for the cross-check).
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
        for t in TABLES {
            assert!(sys.database_mut().set_encoding_policy(t, EncodingPolicy::Plain));
        }
        let baseline: Vec<Vec<Row>> = QUERIES
            .iter()
            .map(|sql| agreed_rows(&sys, sql, "plain"))
            .collect();

        for policy in [EncodingPolicy::Dict, EncodingPolicy::Rle, EncodingPolicy::For, EncodingPolicy::Auto] {
            for t in TABLES {
                assert!(sys.database_mut().set_encoding_policy(t, policy));
            }
            for blooms in [true, false] {
                for t in TABLES {
                    assert!(sys.database_mut().set_bloom_filters(t, blooms));
                }
                let label = format!("{policy:?}/blooms={blooms}");
                for (sql, base) in QUERIES.iter().zip(&baseline) {
                    let rows = agreed_rows(&sys, sql, &label);
                    assert_eq!(&rows, base, "{label}: answer moved vs Plain for {sql}");
                }
            }
        }
    }

    /// Blooms are the only thing that refutes blocks for an equality on an
    /// unclustered key: every 512-row block's min/max spans most of the
    /// `o_custkey` domain, while the key itself sits in a handful of blocks.
    /// With blooms on, the same rows come back with strictly more blocks
    /// pruned and strictly fewer cells scanned.
    #[test]
    fn blooms_prune_an_unclustered_equality() {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        assert!(sys.database_mut().set_zone_block_rows("orders", 512));
        let key = sys.run_sql("SELECT o_custkey FROM orders LIMIT 1").expect("runs").ap.rows[0][0]
            .clone();
        let sql = format!("SELECT o_totalprice FROM orders WHERE o_custkey = {key}");
        let with = sys.run_sql(&sql).expect("runs with blooms").ap;
        assert!(sys.database_mut().set_bloom_filters("orders", false));
        let without = sys.run_sql(&sql).expect("runs without blooms").ap;
        assert!(!with.rows.is_empty(), "the key is present: {sql}");
        assert_eq!(with.rows, without.rows, "blooms changed rows for {sql}");
        assert!(
            with.counters.blocks_pruned > without.counters.blocks_pruned,
            "blooms pruned no extra block: {} vs {}",
            with.counters.blocks_pruned,
            without.counters.blocks_pruned
        );
        assert!(
            with.counters.cells_scanned < without.counters.cells_scanned,
            "blooms saved no cell: {} vs {}",
            with.counters.cells_scanned,
            without.counters.cells_scanned
        );
    }
}

#[test]
fn order_by_is_respected_by_both_engines() {
    let sys = system();
    let out = sys
        .run_sql("SELECT o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 50")
        .expect("runs");
    for rows in [&out.tp.rows, &out.ap.rows] {
        for w in rows.windows(2) {
            let a = w[0][0].as_float().unwrap();
            let b = w[1][0].as_float().unwrap();
            assert!(a >= b, "descending order violated: {a} < {b}");
        }
    }
}

// ---------------------------------------------------------------------------
// ORDER BY ties keep input order on both engines
// ---------------------------------------------------------------------------
//
// Rows with equal ORDER BY keys come out in the order their input arrived,
// on both engines and whether a LIMIT bounds the sort or not. Where both
// engines read the input in one order, as their table scans do, a top-N
// whose LIMIT or OFFSET cuts through a run of equal keys keeps the same rows
// on both sides. Where they read it in different orders, as TP's index range
// scan (key order) and AP's column scan (row order) do, tied rows come out
// permuted, and the dual run still agrees: it compares results as multisets.

mod order_ties {
    use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
    use qpe_htap::engine::HtapSystem;
    use qpe_htap::tpch::TpchConfig;

    /// The 5 rows after the 417th cut through a run of equal
    /// `l_extendedprice` values.
    #[test]
    fn a_top_n_cut_through_tied_keys_keeps_the_same_rows() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let sql = "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity >= 7 \
                   ORDER BY l_extendedprice DESC LIMIT 5 OFFSET 417";
        let out = sys.run_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(out.tp.rows.len(), 5);
        assert_eq!(out.tp.rows, out.ap.rows, "{sql}");
    }

    /// TP reads `c_phone < '12'` through the `c_phone` index, in phone
    /// order; AP scans in row order. Both sort by `c_nationkey` correctly,
    /// with the tied customers of one nation in their own input order.
    #[test]
    fn a_sort_over_an_index_range_scan_agrees_with_a_column_scan() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let sql = "SELECT c_custkey, c_nationkey FROM customer WHERE c_phone < '12' \
                   ORDER BY c_nationkey";
        let out = sys.run_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(out.tp.rows.len() > 1, "{sql}");
        for rows in [&out.tp.rows, &out.ap.rows] {
            assert!(rows.windows(2).all(|w| w[0][1].total_cmp(&w[1][1]).is_le()), "{sql}");
        }
    }

    /// A top-N buffer reserves no more than its input can fill, so a LIMIT
    /// of 10^14 returns every row rather than asking for petabytes up front
    /// (an allocation failure aborts the process).
    #[test]
    fn a_limit_far_past_the_input_returns_every_row() {
        let sys = super::system();
        let all = sys.run_sql("SELECT o_orderkey FROM orders").expect("runs").tp.rows.len();
        let sql = "SELECT o_orderkey, o_totalprice FROM orders \
                   ORDER BY o_totalprice DESC LIMIT 100000000000000 OFFSET 1";
        let out = sys.run_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(out.ap.rows.len(), all - 1);
    }

    /// 4 000 generator top-N queries, all four families, through the dual
    /// run at scale 0.01: none may end in `EngineMismatch`. Run with
    /// `cargo test --release --test engine_equivalence -- --ignored`.
    #[test]
    #[ignore = "a sweep of 4 000 queries; run in release"]
    fn top_n_tie_sweep() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.01));
        let mut gen = WorkloadGenerator::new(WorkloadConfig { seed: 777, top_n_fraction: 1.0 });
        let families = ["FROM orders ORDER BY", "o_orderstatus", "c_acctbal", "l_extendedprice"];
        let mut per_family = [0usize; 4];
        let mut failed = Vec::new();
        for _ in 0..4_000 {
            let sql = gen.top_n_query();
            let family = families.iter().position(|f| sql.contains(f)).expect("a top-N family");
            per_family[family] += 1;
            if let Err(e) = sys.run_sql(&sql) {
                failed.push(format!("{sql}: {e}"));
            }
        }
        assert!(per_family.iter().all(|&n| n > 0), "families drawn: {per_family:?}");
        assert!(failed.is_empty(), "{} of 4 000 failed:\n{}", failed.len(), failed.join("\n"));
    }
}

// ---------------------------------------------------------------------------
// One join-key equality on every executor
// ---------------------------------------------------------------------------
//
// TP's nested loop and index nested loop match keys exactly as the hash
// joins do (`exec::JoinKey`): NULL and NaN match nothing, keys of two types
// never match, and `-0.0` matches `0.0`. No generated query joins on NULL or
// across types, so these cases are written here: a NULL inserted into an
// indexed join column on both sides, a Float key against Int keys through a
// nested loop and through an index, and a `-0.0` key probing an index that
// holds `0.0`.

mod join_keys {
    use qpe_htap::engine::{EngineKind, HtapSystem};
    use qpe_htap::exec::{execute_parallel, execute_scalar, ExecConfig, Row};
    use qpe_htap::plan::NodeType;
    use qpe_htap::tpch::TpchConfig;
    use qpe_sql::value::Value;

    fn system() -> HtapSystem {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
        assert!(sys.database_mut().create_index("supplier", "s_nationkey"));
        assert!(sys.database_mut().create_index("lineitem", "l_discount"));
        for dml in [
            "INSERT INTO supplier (s_suppkey, s_name, s_nationkey, s_acctbal) \
             VALUES (9001, 'no nation', NULL, 10.5)",
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES (90001, 'no nation', NULL, '20-000-000-0000', 7.0, 'machinery')",
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES (90002, 'negative zero', 3, '20-000-000-0000', 0.0, 'machinery')",
            "UPDATE customer SET c_acctbal = -0.0 WHERE c_custkey = 90002",
        ] {
            sys.execute_statement(dml).expect(dml);
        }
        let db = sys.database();
        let customer = db.row_table("customer").expect("customer");
        let negative_zero = customer
            .iter_live()
            .any(|(_, r)| matches!(r[4], Value::Float(x) if x == 0.0 && x.is_sign_negative()));
        assert!(negative_zero, "the UPDATE stores -0.0");
        drop(db);
        sys
    }

    fn count(rows: &[Row]) -> i64 {
        rows[0][0].as_int().expect("COUNT(*)")
    }

    /// Runs `sql` on TP's row interpreter (asserting its join operator),
    /// on AP's row interpreter and on the batch executor at 1 and 2 threads,
    /// then dual through the system; each must count `want`.
    fn assert_count(sys: &HtapSystem, sql: &str, tp_join: NodeType, want: i64) {
        let bound = sys.bind(sql).expect(sql);
        let tp = sys.explain(&bound, EngineKind::Tp).expect(sql);
        let ap = sys.explain(&bound, EngineKind::Ap).expect(sql);
        assert_eq!(tp.count_type(tp_join), 1, "TP plan of {sql}: {tp:#?}");
        let db = sys.database();
        let mut counts = vec![
            ("TP row interpreter", execute_scalar(&tp, &bound, &db, EngineKind::Tp)),
            ("AP row interpreter", execute_scalar(&ap, &bound, &db, EngineKind::Ap)),
        ];
        for threads in [1, 2] {
            let cfg = ExecConfig { threads, morsel_rows: 64, ..ExecConfig::serial() };
            counts.push(("batch executor", execute_parallel(&ap, &bound, &db, &cfg)));
        }
        for (executor, out) in counts {
            let (rows, _) = out.expect(sql);
            assert_eq!(count(&rows), want, "{executor} on {sql}");
        }
        drop(db);
        let dual = sys.run_sql(sql).expect(sql);
        assert_eq!(count(&dual.tp.rows), want, "dual run of {sql}");
    }

    #[test]
    fn null_keys_match_nothing_through_an_index() {
        let sys = system();
        let sql = "SELECT COUNT(*) FROM customer, supplier \
                   WHERE c_nationkey = s_nationkey AND c_custkey = 90001";
        assert_count(&sys, sql, NodeType::IndexNLJoin, 0);
    }

    #[test]
    fn float_keys_never_match_int_keys() {
        let sys = system();
        // c_acctbal 7.0 against l_quantity 7 (no index: a nested loop) and
        // against n_nationkey 7 (nation's primary-key index).
        let sql = "SELECT COUNT(*) FROM customer, lineitem \
                   WHERE c_acctbal = l_quantity AND c_custkey = 90001";
        assert_count(&sys, sql, NodeType::NestedLoopJoin, 0);
        let sql = "SELECT COUNT(*) FROM customer, nation \
                   WHERE c_acctbal = n_nationkey AND c_custkey = 90001";
        assert_count(&sys, sql, NodeType::IndexNLJoin, 0);
    }

    #[test]
    fn negative_zero_matches_zero_through_an_index() {
        let sys = system();
        let zeros = sys.run_sql("SELECT COUNT(*) FROM lineitem WHERE l_discount = 0.0").unwrap();
        let want = count(&zeros.tp.rows);
        assert!(want > 0, "some lineitem has no discount");
        let sql = "SELECT COUNT(*) FROM customer, lineitem \
                   WHERE c_acctbal = l_discount AND c_custkey = 90002";
        assert_count(&sys, sql, NodeType::IndexNLJoin, want);
    }
}
