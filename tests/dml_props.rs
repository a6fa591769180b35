//! Property-based write-path equivalence: after ANY interleaving of
//! INSERT/UPDATE/DELETE/compact, the three read paths —
//!
//! * the TP row-store scan (tombstone-skipping row interpreter),
//! * the AP delta-aware scan (vectorized, base zero-copy + delta via
//!   selection vectors),
//! * the AP *morsel-parallel* scan (same kernels fanned out over worker
//!   threads, morsels straddling the base/delta split), and
//! * the AP post-compaction scan (clean zero-copy fast path)
//!
//! — must return byte-identical rows, and the scalar ≡ serial batch ≡
//! parallel batch executor invariants from `tests/engine_equivalence.rs`
//! must keep holding on dirty tables exactly as they do on clean ones.

use proptest::prelude::*;
use qpe_htap::engine::{EngineKind, HtapSystem};
use qpe_htap::exec::{execute_parallel, execute_scalar, vector, ExecConfig, Row, WorkCounters};
use qpe_htap::opt::{ap, PlannerCtx};
use qpe_htap::tpch::TpchConfig;
use qpe_htap::PlanNode;
use qpe_sql::catalog::Catalog;

/// One randomized write operation against the `customer` table.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Update,
    Delete,
    Compact,
}

fn decode(code: u8) -> Op {
    match code % 4 {
        0 => Op::Insert,
        1 => Op::Update,
        2 => Op::Delete,
        _ => Op::Compact,
    }
}

fn fresh_system() -> HtapSystem {
    HtapSystem::new(&TpchConfig::with_scale(0.0005))
}

/// Applies one op; parameters are derived deterministically from `seed` and
/// the op's position so every proptest case is reproducible.
fn apply(sys: &mut HtapSystem, op: Op, seed: u64, i: usize) {
    let salt = seed.wrapping_mul(31).wrapping_add(i as u64);
    match op {
        Op::Insert => {
            let key = 1_000_000 + salt % 100_000;
            let seg = ["machinery", "building", "household"][(salt % 3) as usize];
            // duplicate keys across ops are possible -> constraint errors
            // are legal outcomes, never storage corruption
            let _ = sys.execute_statement(&format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES ({key}, 'customer#{key}', {}, '20-000-000-0000', \
                 {}.25, '{seg}')",
                salt % 25,
                salt % 5000
            ));
        }
        Op::Update => {
            let lo = 1 + salt % 70;
            sys.execute_statement(&format!(
                "UPDATE customer SET c_acctbal = c_acctbal + {}, c_mktsegment = 'machinery' \
                 WHERE c_custkey BETWEEN {lo} AND {}",
                salt % 100,
                lo + 5
            ))
            .expect("update runs");
        }
        Op::Delete => {
            let lo = 1 + salt % 70;
            sys.execute_statement(&format!(
                "DELETE FROM customer WHERE c_custkey BETWEEN {lo} AND {}",
                lo + 2
            ))
            .expect("delete runs");
        }
        Op::Compact => {
            assert!(sys.compact("customer"));
        }
    }
}

/// Aggregations and top-Ns over every way the batch executor assigns group
/// ids and folds leaves — dictionary, integer and multi-column keys, scalar
/// aggregates, typed and DISTINCT/string leaves, HAVING, and top-N over
/// heavily tied typed keys with OFFSET — to hold to the row interpreter on
/// dirty (base + delta, tombstoned) and freshly compacted tables alike.
const AGGREGATES_AND_TOP_NS: [&str; 6] = [
    "SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer \
     GROUP BY c_mktsegment ORDER BY c_mktsegment",
    "SELECT c_nationkey, COUNT(*), AVG(c_acctbal), MIN(c_acctbal), MAX(c_custkey) \
     FROM customer GROUP BY c_nationkey ORDER BY c_nationkey",
    "SELECT COUNT(*), SUM(c_custkey), MIN(c_name), COUNT(DISTINCT c_mktsegment) FROM customer",
    "SELECT c_mktsegment, c_nationkey, COUNT(*) FROM customer \
     GROUP BY c_mktsegment, c_nationkey HAVING COUNT(*) > 1 \
     ORDER BY c_mktsegment, c_nationkey",
    "SELECT c_custkey, c_nationkey FROM customer ORDER BY c_nationkey DESC LIMIT 7 OFFSET 3",
    "SELECT c_custkey, c_acctbal FROM customer WHERE c_custkey > 5 ORDER BY c_acctbal LIMIT 5",
];

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// Full-table scan through one engine, returning its rows.
fn scan_rows(sys: &HtapSystem, engine: EngineKind) -> Vec<Row> {
    let bound = sys.bind("SELECT * FROM customer").expect("binds");
    sys.run_engine(&bound, engine).expect("scan runs").rows
}

/// Asserts the AP plan produces identical rows AND counters on the row
/// interpreter and the batch executor at 1 (serial), 2 and 4 threads — the
/// engine-equivalence contract, here exercised
/// against dirty (delta-bearing, tombstone-bearing) tables whose morsels
/// straddle the base/delta split. The tiny morsel size forces real splits
/// at test scale.
fn assert_executor_equivalence(sys: &HtapSystem, sql: &str) {
    let db = sys.database();
    let bound = sys.bind(sql).expect("binds");
    let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
    let plan = ap::plan(&ctx).expect("ap plan");
    assert!(vector::supported(&plan), "AP plan outside batch vocabulary");
    let (srows, sc) = execute_scalar(&plan, &bound, &db, EngineKind::Ap).expect("scalar");
    for threads in [1usize, 2, 4] {
        let cfg = ExecConfig { threads, morsel_rows: 16, ..ExecConfig::serial() };
        let (brows, bc) = execute_parallel(&plan, &bound, &db, &cfg).expect("batch");
        assert_eq!(srows, brows, "batch rows diverged at {threads} threads for {sql}");
        assert_eq!(sc, bc, "batch counters diverged at {threads} threads for {sql}");
    }
}

/// Full-table parallel AP scan over the (possibly dirty) table, returning
/// its rows — the delta + tombstone read path under morsel splits.
fn parallel_scan_rows(sys: &HtapSystem, threads: usize) -> Vec<Row> {
    let db = sys.database();
    let bound = sys.bind("SELECT * FROM customer").expect("binds");
    let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
    let plan = ap::plan(&ctx).expect("ap plan");
    let cfg = ExecConfig { threads, morsel_rows: 16, ..ExecConfig::serial() };
    execute_parallel(&plan, &bound, &db, &cfg).expect("parallel scan").0
}

/// Runs one AP plan on the row interpreter and the batch executor at
/// threads 1/2/4, asserting rows and counters are identical, and returns the
/// (shared) rows and counters.
fn run_all_executors(
    sys: &HtapSystem,
    plan: &PlanNode,
    bound: &qpe_sql::binder::BoundQuery,
    label: &str,
) -> (Vec<Row>, WorkCounters) {
    let db = sys.database();
    assert!(vector::supported(plan), "AP plan outside batch vocabulary");
    let (srows, sc) = execute_scalar(plan, bound, &db, EngineKind::Ap).expect("scalar");
    for threads in [1usize, 2, 4] {
        let cfg = ExecConfig { threads, morsel_rows: 16, ..ExecConfig::serial() };
        let (brows, bc) = execute_parallel(plan, bound, &db, &cfg).expect("batch");
        assert_eq!(srows, brows, "{label}: batch rows at {threads} threads");
        assert_eq!(sc, bc, "{label}: batch counters at {threads} threads");
    }
    (srows, sc)
}

/// The zone-map safety contract on one query: the pruned AP plan (scan
/// predicates pushed down) and the unpruned plan return byte-identical rows
/// on every executor, both match the TP row-store scan, and pruning only
/// ever *reduces* cells touched.
fn assert_pruning_equivalence(sys: &HtapSystem, sql: &str) {
    let db = sys.database();
    let bound = sys.bind(sql).expect("binds");
    let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
    let pruned_plan = ap::plan(&ctx).expect("pruned plan");
    let ctx_off = PlannerCtx::new(&bound, db.stats(), db.catalog()).without_pushdown();
    let plain_plan = ap::plan(&ctx_off).expect("plain plan");

    let (pruned_rows, pruned_c) = run_all_executors(sys, &pruned_plan, &bound, "pruned");
    let (plain_rows, plain_c) = run_all_executors(sys, &plain_plan, &bound, "unpruned");
    assert_eq!(pruned_rows, plain_rows, "pruning changed results for {sql}");
    assert!(
        pruned_c.cells_scanned <= plain_c.cells_scanned,
        "pruning increased cells for {sql}: {} vs {}",
        pruned_c.cells_scanned,
        plain_c.cells_scanned
    );
    assert_eq!(plain_c.blocks_checked, 0, "unpruned plan consulted zones");

    let tp_rows = sorted(sys.run_engine(&bound, EngineKind::Tp).expect("tp runs").rows);
    let ap_rows = sorted(pruned_rows);
    // Floats compare with a relative tolerance: the engines fold SUM/AVG in
    // different orders (same rule the system's own agreement check uses).
    let approx = |a: &qpe_sql::value::Value, b: &qpe_sql::value::Value| match (a, b) {
        (qpe_sql::value::Value::Float(x), qpe_sql::value::Value::Float(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    };
    assert!(
        tp_rows.len() == ap_rows.len()
            && tp_rows.iter().zip(&ap_rows).all(|(r1, r2)| {
                r1.len() == r2.len() && r1.iter().zip(r2).all(|(u, v)| approx(u, v))
            }),
        "pruned AP scan diverged from TP for {sql}: {tp_rows:?} vs {ap_rows:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 36,
        ..ProptestConfig::default()
    })]

    /// The acceptance-criteria sweep: ≥32 random interleavings of
    /// INSERT/UPDATE/DELETE/compact followed by scans on every read path.
    #[test]
    fn dml_interleavings_keep_all_read_paths_identical(
        seed in 0u64..10_000,
        codes in proptest::collection::vec(0u8..4, 1..10),
    ) {
        let mut sys = fresh_system();
        for (i, &c) in codes.iter().enumerate() {
            apply(&mut sys, decode(c), seed, i);
        }

        // 1. TP row-store scan == AP delta-aware scan, byte for byte.
        let tp_rows = sorted(scan_rows(&sys, EngineKind::Tp));
        let ap_rows = sorted(scan_rows(&sys, EngineKind::Ap));
        prop_assert_eq!(&tp_rows, &ap_rows, "TP vs AP pre-compaction");

        // 1b. The *parallel* AP scan agrees with the TP scan on the dirty
        //     table too — delta rows and tombstones under morsel splits.
        let par_rows = sorted(parallel_scan_rows(&sys, 4));
        prop_assert_eq!(&tp_rows, &par_rows, "TP vs parallel AP pre-compaction");

        // 2. Scalar and batch executors agree on the dirty table
        //    (engine_equivalence invariants extended to the write path).
        assert_executor_equivalence(&sys, "SELECT * FROM customer");
        for sql in AGGREGATES_AND_TOP_NS {
            assert_executor_equivalence(&sys, sql);
        }

        // 3. Dual-engine pipeline keeps its internal agreement check green
        //    on filtered/aggregated reads over the written table.
        let out = sys
            .run_sql("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery'")
            .expect("engines agree on dirty table");
        prop_assert!(out.speedup() >= 1.0);

        // 4. Compaction changes the physical layout, never the answer.
        sys.compact("customer");
        prop_assert_eq!(sys.freshness("customer").unwrap().delta_rows, 0);
        let tp_after = sorted(scan_rows(&sys, EngineKind::Tp));
        let ap_after = sorted(scan_rows(&sys, EngineKind::Ap));
        prop_assert_eq!(&tp_after, &ap_after, "TP vs AP post-compaction");
        prop_assert_eq!(&tp_rows, &tp_after, "compaction changed results");
        assert_executor_equivalence(&sys, "SELECT * FROM customer");
        for sql in AGGREGATES_AND_TOP_NS {
            assert_executor_equivalence(&sys, sql);
        }
    }

    /// Row counts reported by storage, statistics and the catalog stay
    /// mutually consistent through arbitrary write sequences.
    #[test]
    fn counts_stay_consistent_across_writes(
        seed in 0u64..10_000,
        codes in proptest::collection::vec(0u8..4, 1..8),
    ) {
        let mut sys = fresh_system();
        for (i, &c) in codes.iter().enumerate() {
            apply(&mut sys, decode(c), seed, i);
        }
        let stored = sys.database().stored_table("customer").unwrap().row_count() as u64;
        let stats = sys.database().stats().table("customer").unwrap().row_count;
        let catalog = sys.database().catalog().table("customer").unwrap().row_count;
        let counted = sys
            .run_sql("SELECT COUNT(*) FROM customer")
            .unwrap()
            .tp
            .rows[0][0]
            .as_int()
            .unwrap() as u64;
        prop_assert_eq!(stored, counted);
        prop_assert_eq!(stats, counted);
        prop_assert_eq!(catalog, counted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Zone-map pruning never changes results: after any interleaving of
    /// INSERT/UPDATE/DELETE/compact (with 8-row blocks so the test-scale
    /// table actually splits into many prunable blocks), pruned scan ≡
    /// unpruned scan ≡ TP scan on selective, dictionary-equality and
    /// range-aggregate queries — rows identical everywhere, counters
    /// identical across executors within each plan, and pre- vs
    /// post-compaction answers identical too.
    #[test]
    fn zone_map_pruning_never_changes_results(
        seed in 0u64..10_000,
        codes in proptest::collection::vec(0u8..4, 1..10),
    ) {
        let mut sys = fresh_system();
        assert!(sys.database_mut().set_zone_block_rows("customer", 8));
        for (i, &c) in codes.iter().enumerate() {
            apply(&mut sys, decode(c), seed, i);
        }
        let queries = [
            // Range on the sequential PK: the zone maps' best case.
            "SELECT c_custkey, c_name, c_acctbal FROM customer \
             WHERE c_custkey BETWEEN 20 AND 40",
            // Equality on the dictionary-encoded segment column: skips
            // blocks whose min/max excludes the literal AND exercises the
            // code-to-code comparison kernel on surviving blocks.
            "SELECT c_custkey, c_mktsegment FROM customer \
             WHERE c_mktsegment = 'machinery'",
            // Range aggregate (pushed conjunct under an aggregate).
            "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey > 50",
        ];
        for sql in queries {
            assert_pruning_equivalence(&sys, sql);
        }
        // Compaction rebuilds blocks, encodings and zone headers; answers
        // must not move.
        let before: Vec<Vec<Row>> = queries
            .iter()
            .map(|sql| sorted(sys.run_engine(&sys.bind(sql).unwrap(), EngineKind::Ap).unwrap().rows))
            .collect();
        sys.compact("customer");
        for (sql, rows) in queries.iter().zip(before) {
            assert_pruning_equivalence(&sys, sql);
            let after = sorted(
                sys.run_engine(&sys.bind(sql).unwrap(), EngineKind::Ap).unwrap().rows,
            );
            prop_assert_eq!(rows, after, "compaction changed {}", sql);
        }
    }
}

/// Forced-encoding matrix on a *dirty* table: after a fixed DML
/// interleaving, every encoding policy × bloom-filter setting keeps all
/// read paths identical — TP ≡ AP serial ≡ AP parallel rows, executor
/// counters identical, pruned ≡ unpruned — and compaction (which folds the
/// delta into the forced base representation) changes nothing. `orders`
/// is forced to the same policy, so the dirty `customer ⨝ orders` join and
/// an `orders` top-N run over encoded bases on both sides.
#[test]
fn forced_encodings_on_dirty_tables_keep_read_paths_identical() {
    use qpe_htap::storage::col_store::EncodingPolicy;
    let policies = [
        EncodingPolicy::Plain,
        EncodingPolicy::Dict,
        EncodingPolicy::Rle,
        EncodingPolicy::For,
        EncodingPolicy::Auto,
    ];
    // Unique sort keys only: engines may break ORDER BY ties differently.
    let join_and_top_n = [
        "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
        "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10",
    ];
    for policy in policies {
        let mut sys = fresh_system();
        assert!(sys.database_mut().set_zone_block_rows("customer", 8));
        for table in ["customer", "orders"] {
            assert!(sys.database_mut().set_encoding_policy(table, policy));
        }
        for (i, &c) in [0u8, 1, 2, 0, 3, 1, 0, 2].iter().enumerate() {
            apply(&mut sys, decode(c), 4242, i);
        }
        for blooms in [true, false] {
            assert!(sys.database_mut().set_bloom_filters("customer", blooms));
            let tp = sorted(scan_rows(&sys, EngineKind::Tp));
            let ap = sorted(scan_rows(&sys, EngineKind::Ap));
            assert_eq!(tp, ap, "{policy:?}/blooms={blooms}: TP vs AP scan");
            let par = sorted(parallel_scan_rows(&sys, 4));
            assert_eq!(tp, par, "{policy:?}/blooms={blooms}: TP vs parallel AP");
            assert_executor_equivalence(&sys, "SELECT * FROM customer");
            for sql in join_and_top_n {
                assert_executor_equivalence(&sys, sql);
                sys.run_sql(sql).expect("engines agree");
            }
            for sql in [
                "SELECT c_custkey, c_mktsegment FROM customer \
                 WHERE c_mktsegment = 'machinery'",
                "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey > 50",
            ] {
                assert_pruning_equivalence(&sys, sql);
            }
        }
        // Compaction folds the delta into the forced representation; the
        // policy survives and answers stay put.
        let before = sorted(scan_rows(&sys, EngineKind::Ap));
        sys.compact("customer");
        assert_eq!(
            sys.database().stored_table("customer").unwrap().cols.encoding_policy(),
            policy,
            "compaction dropped the forced policy"
        );
        let after = sorted(scan_rows(&sys, EngineKind::Ap));
        assert_eq!(before, after, "{policy:?}: compaction changed answers");
        assert_executor_equivalence(&sys, "SELECT * FROM customer");
    }
}

/// Block stats go stale in the conservative direction only, and `compact()`
/// rebuilds them exactly: relocating a row's value outside every old block
/// range keeps it visible pre-compaction (delta rows are never pruned), and
/// after compaction the rebuilt headers both cover the new value and prune
/// tighter than the stale ones could.
#[test]
fn compact_rebuilds_stale_block_stats() {
    let mut sys = fresh_system();
    assert!(sys.database_mut().set_zone_block_rows("customer", 8));
    // Relocate one row far outside the original key range (75 rows seeded).
    sys.execute_statement("UPDATE customer SET c_custkey = 900000 WHERE c_custkey = 10")
        .expect("update runs");
    let probe = "SELECT c_custkey FROM customer WHERE c_custkey = 900000";

    // Pre-compaction: no base block covers 900000 — every one is pruned —
    // but the relocated row lives in the unprunable delta and must be found.
    let bound = sys.bind(probe).unwrap();
    let db = sys.database();
    let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
    let plan = ap::plan(&ctx).unwrap();
    let (rows, c) = execute_parallel(&plan, &bound, &db, &ExecConfig::serial()).expect("runs");
    assert_eq!(rows.len(), 1, "delta row must survive full base pruning");
    assert_eq!(c.blocks_pruned, c.blocks_checked, "stale headers refute every base block");
    // Shadowing below does not drop this read guard — release it before the
    // write-locking compact().
    drop(db);

    // Post-compaction: the header of the merged table's last block now
    // covers the relocated key (stale stats rebuilt), pruning still leaves
    // exactly the covering block, and the answer is unchanged.
    sys.compact("customer");
    let guard = sys.database();
    let cols = &guard.stored_table("customer").unwrap().cols;
    let max_of_last = cols.zones(0).last().unwrap().max.clone();
    drop(guard);
    assert_eq!(max_of_last, Some(qpe_sql::value::Value::Int(900000)));
    let bound = sys.bind(probe).unwrap();
    let db = sys.database();
    let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
    let plan = ap::plan(&ctx).unwrap();
    let (rows, c) = execute_parallel(&plan, &bound, &db, &ExecConfig::serial()).expect("runs");
    assert_eq!(rows.len(), 1);
    assert!(c.blocks_pruned > 0, "rebuilt headers prune the non-covering blocks");
    assert!(c.blocks_pruned < c.blocks_checked, "the covering block survives");
    assert_pruning_equivalence(&sys, probe);
}
