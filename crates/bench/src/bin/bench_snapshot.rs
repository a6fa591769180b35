//! Perf-trajectory snapshot: times a point lookup, a 2-way join and an
//! indexed top-N on each engine plus the write-path / delta-read /
//! parallel-execution cases with `std::time::Instant` and writes
//! `BENCH_exec.json` (median ns per case) at the repository root, so
//! successive PRs can compare executor performance against a checked-in
//! baseline.
//!
//! Write-path cases:
//! * `dml_insert_delete_compact` — one INSERT + targeted DELETE + compact
//!   per iteration (steady-state: the table returns to baseline each time);
//! * `mixed_90_10` — a serving loop of 9 TP point reads per write cycle;
//! * `ap_scan_50pct_delta` — an AP aggregate scan over a table whose live
//!   rows are 50% delta-resident (the freshness-read cost, pre-compaction).
//!
//! Parallel cases (`par_*_tN` wall-clock at N worker threads, plus
//! `sim_par_*_tN` — the deterministic critical-path latency the router
//! sees) run the morsel-parallel executor at a larger scale (0.02) so the
//! inputs actually split into many morsels:
//! * `par_join_2way_tN` — 30k-row probe hash join;
//! * `par_ap_scan_50pct_delta_tN` — filtered aggregate over a 24k-row
//!   customer table whose live rows are 50% delta-resident.
//!
//! Wall-clock thread scaling is hardware-dependent (a single-core container
//! cannot show it; the simulated entries are the portable signal).
//!
//! Zone-map cases (`ap_point_lookup_pruned`, `ap_selective_scan_1pct` and
//! their `*_noprune` twins, plus `sim_*` modeled latencies) run at scale
//! 0.02 and measure block pruning directly: the same query with pushdown on
//! vs off on an identical table.
//!
//! Compressed-execution cases (`ap_eq_unclustered_bloom[_nobloom]`,
//! `ap_rle_predicate_scan[_plain]`, `ap_dict_join[_plain]`,
//! `ap_for_range_scan[_plain]`) pair each encoding-aware kernel — bloom
//! block pruning, run-at-a-time RLE predicates, dict-code hash joins,
//! FOR packed-domain range compares — with its de-specialized twin on
//! identical data; the printed ratios are the win. Expect ~15% wall-clock
//! drift between runs on shared hosts.
//!
//! Session cases (values are **queries per second**, not ns/iter):
//! * `prepared_point_lookup_qps` — `Session::prepare` once, `execute` 10k
//!   times with varying parameters (median of 3 runs);
//! * `unprepared_point_lookup_qps` — the same lookups as per-call SQL text
//!   through `execute_statement` (full front end every time);
//! * `mixed_clients_qps` — 4 threads × disjoint sessions over one shared
//!   system, all on the prepared path (`&self` reads under real
//!   concurrency).
//!
//! The prepared results are asserted row- and counter-identical to the
//! inlined-literal runs before timing, and the prepared/unprepared ratio
//! plus the plan-cache hit rate are printed.
//!
//! Durability cases (real disk I/O against a tempdir):
//! * `wal_commit_qps` — 8 client threads of durable single-row INSERTs
//!   under group commit, in queries per second;
//! * `wal_commit_qps_per_statement` — the same load with an fsync inside
//!   every statement (the naive contrast; the group-commit ratio is
//!   printed);
//! * `recovery_time_100k_rows` — wall-clock ns of `HtapSystem::open` on a
//!   directory whose WAL holds 100k uncheckpointed inserted rows;
//! * `background_compact_p99_write_stall` — p99 per-statement write
//!   latency (ns) while the background compactor repeatedly rebuilds and
//!   swaps the table underneath the writer.
//!
//! MVCC mixed-workload cases (the snapshot-read contention story):
//! * `mvcc_reader_p99_no_writer` — p99 latency (ns) of a prepared
//!   analytical reader (plan once; per read, pin a snapshot and execute)
//!   on an otherwise idle durable system;
//! * `mvcc_reader_p99_with_writer` — the same reads while a concurrent
//!   paced client streams durable insert/delete cycles (steady-state table
//!   size, periodic compaction). Snapshot reads hold no lock during
//!   execution, so the target is busy p99 ≤ 1.5x quiet p99; the ratio is
//!   printed and a warning fires above the target. Like the `par_*` thread
//!   scaling, this is hardware-dependent: on a single-core host reader and
//!   writer timeslice one CPU, the whole latency distribution shifts by
//!   scheduler interference with the locks never contended, and the
//!   printed note says so — judge the target on a multi-core host.
//!
//! ```sh
//! cargo run --release --bin bench_snapshot                # print + write
//! cargo run --release --bin bench_snapshot -- --check     # print only
//! cargo run --release --bin bench_snapshot -- --threads 4 # AP cases at 4 threads
//! ```

use qpe_htap::engine::{EngineKind, EngineRun, HtapSystem};
use qpe_sql::binder::BoundQuery;
use qpe_htap::exec::{execute_parallel, ExecConfig, StatementLimits};
use qpe_htap::opt::{ap, PlannerCtx};
use qpe_htap::tpch::TpchConfig;
use std::hint::black_box;
use std::time::Instant;

/// Per-engine read cases: point lookup, 2-way join, indexed top-N.
const CASES: [(&str, &str); 3] = [
    ("point_lookup", "SELECT c_name FROM customer WHERE c_custkey = 42"),
    (
        "join_2way",
        "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
    ),
    (
        "topn_indexed",
        "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10",
    ),
];

const SAMPLES: usize = 15;

fn median_ns(mut samples: Vec<f64>) -> u64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2] as u64
}

/// Plans `bound` for `engine` and runs it there.
fn run_engine(sys: &HtapSystem, bound: &BoundQuery, engine: EngineKind) -> EngineRun {
    let plan = sys.explain(bound, engine).expect("plans");
    sys.run_engine_with_plan(plan, bound, engine).expect("runs")
}

fn time_case(sys: &HtapSystem, sql: &str, engine: EngineKind) -> u64 {
    let bound = sys.bind(sql).expect("binds");
    // Warm up and estimate per-iteration cost.
    let warm = Instant::now();
    let mut warm_iters = 0u64;
    while warm.elapsed().as_millis() < 100 || warm_iters < 3 {
        black_box(run_engine(sys, black_box(&bound), engine));
        warm_iters += 1;
    }
    let per_iter = warm.elapsed().as_nanos() as f64 / warm_iters as f64;
    // ~20ms of measurement per sample, at least one iteration.
    let iters = ((20e6 / per_iter.max(1.0)) as u64).max(1);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(run_engine(sys, black_box(&bound), engine));
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median_ns(samples)
}

/// Times one closure with the shared warm-up/median protocol.
fn time_ns(mut f: impl FnMut()) -> u64 {
    let warm = Instant::now();
    let mut warm_iters = 0u64;
    while warm.elapsed().as_millis() < 100 || warm_iters < 3 {
        f();
        warm_iters += 1;
    }
    let per_iter = warm.elapsed().as_nanos() as f64 / warm_iters as f64;
    let iters = ((20e6 / per_iter.max(1.0)) as u64).max(1);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median_ns(samples)
}

/// Zone-map pruning cases at scale 0.02 (orders: 30k rows, ~59 adaptive
/// 512-row blocks): a point lookup and a 1%-selective key-range aggregate,
/// each timed
/// with pruning on and off (`*_noprune`), plus the modeled `sim_*` latencies
/// for the same counters so the pruned-block savings are visible in the
/// deterministic model the router consumes, not just in wall-clock.
fn pruning_cases() -> Vec<(String, u64)> {
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.02));
    let cases = [
        (
            "ap_point_lookup_pruned",
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 4242",
        ),
        (
            "ap_selective_scan_1pct",
            "SELECT COUNT(*), SUM(o_totalprice) FROM orders \
             WHERE o_orderkey BETWEEN 12000 AND 12300",
        ),
    ];
    let mut out = Vec::new();
    for (name, sql) in cases {
        let mut entry = |sys: &HtapSystem, label: String| {
            let bound = sys.bind(sql).expect("binds");
            let ns = time_ns(|| {
                black_box(run_engine(sys, black_box(&bound), EngineKind::Ap));
            });
            let run = run_engine(sys, &bound, EngineKind::Ap);
            out.push((label.clone(), ns));
            out.push((format!("sim_{label}"), run.latency_ns));
        };
        sys.set_pruning(true);
        entry(&sys, name.to_string());
        sys.set_pruning(false);
        entry(&sys, format!("{name}_noprune"));
        sys.set_pruning(true);
    }
    out
}

/// Times one AP-engine SQL case into `out` and returns the measured ns.
fn run_encoding_case(
    out: &mut Vec<(String, u64)>,
    sys: &HtapSystem,
    label: &str,
    sql: &str,
) -> u64 {
    let bound = sys.bind(sql).expect("binds");
    let ns = time_ns(|| {
        black_box(run_engine(sys, black_box(&bound), EngineKind::Ap));
    });
    out.push((label.to_string(), ns));
    ns
}

/// Compressed-execution cases at scale 0.02 — each pairs a specialized
/// storage kernel with its de-specialized twin over identical data, so the
/// checked-in entries carry the win directly:
///
/// * `ap_eq_unclustered_bloom` vs `_nobloom` — point equality on
///   `o_custkey`, which is *unclustered*: every block's min/max spans most
///   of the key domain, so only the per-block bloom filters prune. The twin
///   drops the blooms (min/max pruning stays on and refutes ~nothing).
///   This pair runs at scale 0.1 with 512-row blocks pinned (the
///   granularity a multi-million-row table would get) so the key is
///   absent from ~97% of blocks.
/// * `ap_rle_predicate_scan` vs `_plain` — equality over a run-heavy int
///   column (seeded runs of 64) under a forced RLE policy: the kernel
///   evaluates once per run instead of once per row. Block pruning is
///   disabled so the kernel, not block skipping, is what's measured.
/// * `ap_dict_join` vs `_plain` — a string-keyed hash join
///   (`o_orderpriority = c_mktsegment`, with a seeded sliver of orders
///   whose priority is a real market segment so matches exist): dictionary
///   sides build and probe on `u32` codes through a build-space remap; the
///   plain twin hashes the strings themselves.
/// * `ap_for_range_scan` vs `_plain` — a selective int range predicate
///   under a forced FOR policy, zone pruning off: the kernel decides each
///   1024-row block wholesale against the encoding's own [ref, max]
///   envelope and reads packed words only in the straddling blocks.
///
/// Wall-clock ratios are host-dependent — expect ~15% drift between runs
/// on shared hardware; the checked-in numbers are one host's snapshot, and
/// the printed ratios are the signal reviewers should eyeball.
fn encoding_cases() -> Vec<(String, u64)> {
    use qpe_htap::storage::col_store::EncodingPolicy;

    let mut out = Vec::new();

    // Bloom pruning on an unclustered key: zone headers are useless here,
    // the blooms do all the refuting. Scale 0.1 (150k orders) so the probed
    // key is absent from ~97% of blocks — at toy scales every key lands in
    // a sizable fraction of the blocks and the effect is understated.
    {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.1));
        // Production-style pruning granularity: the adaptive default would
        // pick 4096-row blocks for a 150k-row table, and at that coarseness
        // a 10-occurrence key still touches ~25% of blocks. 512-row blocks
        // are what a multi-million-row table would get per the same 8
        // bits/row bloom sizing, and let the filters refute ~97% of blocks.
        assert!(sys.database_mut().set_zone_block_rows("orders", 512));
        let sql = "SELECT o_totalprice FROM orders WHERE o_custkey = 1500";
        let with = run_encoding_case(&mut out, &sys, "ap_eq_unclustered_bloom", sql);
        assert!(sys.database_mut().set_bloom_filters("orders", false));
        let without = run_encoding_case(&mut out, &sys, "ap_eq_unclustered_bloom_nobloom", sql);
        println!(
            "  (blooms speed the unclustered equality up {:.2}x)",
            without as f64 / with.max(1) as f64
        );
    }

    // Run-aware predicate kernel: seed 27k rows whose c_nationkey forms
    // runs of 64, compact, then force RLE vs Plain over the same base.
    {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.02));
        let mut key = 910_000usize;
        for _ in 0..9 {
            let values: Vec<String> = (0..3000)
                .map(|i| {
                    let k = key + i;
                    format!(
                        "({k}, 'customer#delta{k}', {}, '20-000-000-0000', {}.5, 'machinery')",
                        (k / 64) % 25,
                        k % 5000
                    )
                })
                .collect();
            sys.execute_statement(&format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES {}",
                values.join(", ")
            ))
            .expect("seed run-heavy rows");
            key += 3000;
        }
        sys.database_mut().compact_table("customer");
        sys.set_pruning(false);
        let sql = "SELECT COUNT(*) FROM customer WHERE c_nationkey = 7";
        assert!(sys.database_mut().set_encoding_policy("customer", EncodingPolicy::Rle));
        let rle = run_encoding_case(&mut out, &sys, "ap_rle_predicate_scan", sql);
        assert!(sys.database_mut().set_encoding_policy("customer", EncodingPolicy::Plain));
        let plain = run_encoding_case(&mut out, &sys, "ap_rle_predicate_scan_plain", sql);
        println!(
            "  (run-aware RLE predicate kernel is {:.2}x the plain row-wise kernel)",
            plain as f64 / rle.max(1) as f64
        );
    }

    // Dict-code hash join: both key columns dictionary-encoded, probe codes
    // remapped into the build dictionary once, then integer hashing only.
    {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.02));
        let segs = ["machinery", "building", "household"];
        let values: Vec<String> = (0..60)
            .map(|i| {
                format!("({}, {}, '{}', {}.0)", 900_000 + i, 1 + i % 3000, segs[i % 3], 100 + i)
            })
            .collect();
        sys.execute_statement(&format!(
            "INSERT INTO orders (o_orderkey, o_custkey, o_orderpriority, o_totalprice) \
             VALUES {}",
            values.join(", ")
        ))
        .expect("seed segment-valued orders");
        sys.database_mut().compact_table("orders");
        let sql = "SELECT COUNT(*) FROM customer, orders WHERE o_orderpriority = c_mktsegment";
        assert!(sys.database_mut().set_encoding_policy("customer", EncodingPolicy::Dict));
        assert!(sys.database_mut().set_encoding_policy("orders", EncodingPolicy::Dict));
        let dict = run_encoding_case(&mut out, &sys, "ap_dict_join", sql);
        assert!(sys.database_mut().set_encoding_policy("customer", EncodingPolicy::Plain));
        assert!(sys.database_mut().set_encoding_policy("orders", EncodingPolicy::Plain));
        let plain = run_encoding_case(&mut out, &sys, "ap_dict_join_plain", sql);
        println!(
            "  (dict-code join is {:.2}x the string-keyed join)",
            plain as f64 / dict.max(1) as f64
        );
    }

    // FOR range predicate: the kernel first decides each 1024-row block
    // against its stored [ref, max] envelope (whole-block fill or skip —
    // the encoding's own metadata, no zone maps involved: pruning is off),
    // then compares only the straddling blocks' bit-packed deltas in the
    // packed domain. The plain twin evaluates all 30k rows.
    {
        let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.02));
        sys.set_pruning(false);
        let sql = "SELECT COUNT(*) FROM orders WHERE o_orderkey BETWEEN 12000 AND 13500";
        assert!(sys.database_mut().set_encoding_policy("orders", EncodingPolicy::For));
        let forenc = run_encoding_case(&mut out, &sys, "ap_for_range_scan", sql);
        assert!(sys.database_mut().set_encoding_policy("orders", EncodingPolicy::Plain));
        let plain = run_encoding_case(&mut out, &sys, "ap_for_range_scan_plain", sql);
        println!(
            "  (FOR packed-domain range kernel is {:.2}x the plain kernel)",
            plain as f64 / forenc.max(1) as f64
        );
    }

    out
}

const INSERT_SQL: &str = "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
     c_acctbal, c_mktsegment) VALUES (900001, 'customer#900001', 4, '20-555-000-1111', \
     1234.56, 'machinery')";
const DELETE_SQL: &str = "DELETE FROM customer WHERE c_custkey = 900001";

/// Times the write-path and delta-read cases.
fn write_path_cases() -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();

    // Steady-state write cycle: each iteration inserts one row, deletes it
    // through the PK index, and compacts both formats back to baseline.
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
    let ns = time_ns(|| {
        black_box(sys.execute_statement(INSERT_SQL).expect("insert"));
        black_box(sys.execute_statement(DELETE_SQL).expect("delete"));
        sys.database_mut().compact_table("customer");
    });
    out.push(("dml_insert_delete_compact", ns));

    // 90/10 serving mix: 9 TP point reads per write cycle.
    let point = sys
        .bind("SELECT c_name FROM customer WHERE c_custkey = 42")
        .expect("binds");
    let ns = time_ns(|| {
        for _ in 0..9 {
            black_box(run_engine(&sys, black_box(&point), EngineKind::Tp));
        }
        black_box(sys.execute_statement(INSERT_SQL).expect("insert"));
        black_box(sys.execute_statement(DELETE_SQL).expect("delete"));
        sys.database_mut().compact_table("customer");
    });
    out.push(("mixed_90_10", ns));

    // AP scan over a half-delta table: double `customer` with uncompacted
    // inserts, then time the delta-aware aggregate scan (read-only, so the
    // 50% delta fraction holds for every sample).
    let dirty = HtapSystem::new(&TpchConfig::with_scale(0.002));
    let base_rows = dirty
        .database()
        .stored_table("customer")
        .expect("customer exists")
        .row_count();
    let mut values = Vec::with_capacity(base_rows);
    for i in 0..base_rows {
        values.push(format!(
            "({}, 'customer#delta{i}', {}, '20-000-000-0000', {}.5, 'machinery')",
            910_000 + i,
            i % 25,
            i % 5000
        ));
    }
    let bulk = format!(
        "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
         c_mktsegment) VALUES {}",
        values.join(", ")
    );
    dirty.execute_statement(&bulk).expect("bulk insert");
    let fresh = dirty.freshness("customer").expect("freshness");
    assert_eq!(fresh.delta_rows, base_rows, "half the live rows sit in the delta");
    let agg = dirty
        .bind("SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_mktsegment = 'machinery'")
        .expect("binds");
    let ns = time_ns(|| {
        black_box(run_engine(&dirty, black_box(&agg), EngineKind::Ap));
    });
    out.push(("ap_scan_50pct_delta", ns));

    out
}

/// Governance overhead: the same half-delta AP aggregate as
/// `ap_scan_50pct_delta`, once under unlimited statement limits (the guard's
/// fast path — one relaxed atomic load per block) and once under *real*
/// limits (a far deadline plus a huge memory budget, so every block checks
/// the clock and charges the budget without ever tripping). The PR 9 gate:
/// governed must stay within ~2% of ungoverned.
fn governance_cases() -> Vec<(String, u64)> {
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
    let base_rows = sys
        .database()
        .stored_table("customer")
        .expect("customer exists")
        .row_count();
    bulk_insert_customers(&mut sys, 910_000, base_rows);
    let fresh = sys.freshness("customer").expect("freshness");
    assert_eq!(fresh.delta_rows, base_rows, "half the live rows sit in the delta");
    let agg = sys
        .bind("SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_mktsegment = 'machinery'")
        .expect("binds");

    // A single-CPU host schedules background work into the middle of a
    // measurement, so the pair is timed in three interleaved rounds and
    // each side keeps its minimum — the usual microbenchmark noise floor.
    let mut ungoverned = u64::MAX;
    let mut governed = u64::MAX;
    for _ in 0..3 {
        sys.set_statement_limits(StatementLimits::unlimited());
        ungoverned = ungoverned.min(time_ns(|| {
            black_box(run_engine(&sys, black_box(&agg), EngineKind::Ap));
        }));
        sys.set_statement_limits(StatementLimits {
            timeout: Some(std::time::Duration::from_secs(3600)),
            memory_budget: Some(1 << 40),
        });
        governed = governed.min(time_ns(|| {
            black_box(run_engine(&sys, black_box(&agg), EngineKind::Ap));
        }));
    }
    sys.set_statement_limits(StatementLimits::unlimited());
    let overhead_pct = ((governed as f64 / ungoverned as f64 - 1.0) * 100.0).max(0.0).round();
    vec![
        ("ungoverned_ap_scan".to_string(), ungoverned),
        ("governed_ap_scan".to_string(), governed),
        ("governed_ap_scan_overhead_pct".to_string(), overhead_pct as u64),
    ]
}

/// Bulk-inserts `n` synthetic customers starting at key `key0`, in
/// 3000-row statements.
fn bulk_insert_customers(sys: &mut HtapSystem, key0: usize, n: usize) {
    let mut remaining = n;
    let mut key = key0;
    while remaining > 0 {
        let chunk = remaining.min(3000);
        let values: Vec<String> = (0..chunk)
            .map(|i| {
                format!(
                    "({}, 'customer#delta{}', {}, '20-000-000-0000', {}.5, 'machinery')",
                    key + i,
                    key + i,
                    (key + i) % 25,
                    (key + i) % 5000
                )
            })
            .collect();
        sys.execute_statement(&format!(
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES {}",
            values.join(", ")
        ))
        .expect("bulk insert");
        key += chunk;
        remaining -= chunk;
    }
}

/// Morsel-parallel executor cases at a scale where inputs split into many
/// morsels (orders: 30k rows; dirty customer: 24k live rows, 50% in the
/// delta). Each case runs at 1, 2 and 4 worker threads; `par_*` entries are
/// wall-clock, `sim_par_*` entries are the deterministic critical-path
/// latency the router/explainer see for the same counters.
fn parallel_cases() -> Vec<(String, u64)> {
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.02));
    // Grow customer to 12k clean base rows, then add a 12k-row delta:
    // 50% of live rows are delta-resident, and morsels straddle the split.
    bulk_insert_customers(&mut sys, 910_000, 9_000);
    sys.database_mut().compact_table("customer");
    bulk_insert_customers(&mut sys, 930_000, 12_000);
    let fresh = sys.freshness("customer").expect("freshness");
    assert_eq!(fresh.live_delta_rows, 12_000, "half the live rows sit in the delta");

    let cases = [
        (
            "join_2way",
            "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey",
        ),
        (
            "ap_scan_50pct_delta",
            "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_mktsegment = 'machinery'",
        ),
    ];
    let db = sys.database();
    let mut out = Vec::new();
    for (name, sql) in cases {
        let bound = sys.bind(sql).expect("binds");
        let ctx = PlannerCtx::new(&bound, db.stats(), db.catalog());
        let plan = ap::plan(&ctx).expect("ap plan");
        let (_, counters) =
            execute_parallel(&plan, &bound, &db, &ExecConfig::serial()).expect("counters");
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig::with_threads(threads);
            let ns = time_ns(|| {
                black_box(execute_parallel(black_box(&plan), &bound, &db, &cfg).unwrap());
            });
            out.push((format!("par_{name}_t{threads}"), ns));
            // End-to-end simulated latency (includes the 15ms AP pipeline
            // startup) and the execution-phase portion alone — the modeled
            // counterpart of the wall-clock entry, where thread scaling is
            // visible regardless of how many cores this host happens to
            // have.
            let sim = sys.latency_model().ap_latency_ns_threads(&counters, threads as u64);
            out.push((format!("sim_par_{name}_t{threads}"), sim));
            out.push((
                format!("sim_exec_par_{name}_t{threads}"),
                sim - sys.latency_model().ap.fixed_ns,
            ));
        }
    }
    out
}

/// Prepared-statement session cases: the parse-once / execute-many contract.
///
/// * `prepared_point_lookup_qps` — one `Session::prepare`, then repeated
///   `execute(&[key])` with varying keys (front end paid once);
/// * `unprepared_point_lookup_qps` — the same point lookups as ad-hoc SQL
///   strings through `execute_statement` (lex+parse+bind+plan per call, the
///   realistic client that formats its literals into the text);
/// * `mixed_clients_qps` — 4 threads × disjoint sessions over one shared
///   `Arc<HtapSystem>`, all hammering the same prepared statement: the
///   `&self` read path under actual concurrency.
///
/// Values are **queries per second** (higher is better), unlike the ns/iter
/// entries. Before timing, prepared results are verified row- and
/// counter-identical to the inlined-literal runs.
fn session_cases() -> Vec<(&'static str, u64)> {
    use qpe_htap::session::Session;
    use qpe_sql::value::Value;
    use std::sync::Arc;

    // A realistic OLTP point lookup: PK equality plus the usual pile of
    // guard predicates. The per-statement front end (lex, parse, bind, two
    // planners) scales with the predicate count while execution stays
    // one-block cheap — exactly the overhead prepare-once amortizes.
    const PARAM_SQL: &str = "SELECT c_name, c_acctbal FROM customer \
        WHERE c_custkey = ? AND c_mktsegment = ? AND c_acctbal BETWEEN ? AND ? \
        AND c_nationkey <> ? AND c_phone <> ? AND c_name IS NOT NULL";
    let inlined_sql = |key: i64| {
        format!(
            "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {key} \
             AND c_mktsegment = 'machinery' AND c_acctbal BETWEEN -100000.0 AND 100000.0 \
             AND c_nationkey <> 26 AND c_phone <> 'none' AND c_name IS NOT NULL"
        )
    };
    let params_for = |key: i64| {
        vec![
            Value::Int(key),
            Value::Str("machinery".into()),
            Value::Float(-100000.0),
            Value::Float(100000.0),
            Value::Int(26),
            Value::Str("none".into()),
        ]
    };
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002)));
    let n_keys = sys
        .database()
        .stored_table("customer")
        .expect("customer exists")
        .row_count() as i64;
    let key_of = |i: u64| 1 + (i as i64 % n_keys);

    let session = Session::new(Arc::clone(&sys));
    let stmt = session.prepare(PARAM_SQL).expect("prepares");

    // Equivalence gate: prepared ≡ inlined on rows AND WorkCounters.
    for key in [1, 42, n_keys / 2, n_keys] {
        let prepared = stmt.execute(&params_for(key)).expect("prepared runs");
        let prepared = prepared.as_query().expect("is a query");
        let inlined = sys.run_sql(&inlined_sql(key)).expect("inlined runs");
        assert_eq!(prepared.tp.rows, inlined.tp.rows, "rows diverged at key {key}");
        assert_eq!(prepared.ap.rows, inlined.ap.rows, "rows diverged at key {key}");
        assert_eq!(prepared.tp.counters, inlined.tp.counters, "TP counters at {key}");
        assert_eq!(prepared.ap.counters, inlined.ap.counters, "AP counters at {key}");
    }

    const N: u64 = 10_000;
    let qps = |start: Instant, n: u64| (n as f64 / start.elapsed().as_secs_f64()) as u64;
    // Median of three 10k-execution runs per flavor, interleaved so both see
    // the same machine conditions.
    let mut prepared_runs = Vec::new();
    let mut unprepared_runs = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..N {
            black_box(stmt.execute(&params_for(key_of(i))).expect("prepared runs"));
        }
        prepared_runs.push(qps(start, N));
        let start = Instant::now();
        for i in 0..N {
            black_box(sys.execute_statement(&inlined_sql(key_of(i))).expect("unprepared runs"));
        }
        unprepared_runs.push(qps(start, N));
    }
    prepared_runs.sort_unstable();
    unprepared_runs.sort_unstable();
    let prepared_qps = prepared_runs[1];
    let unprepared_qps = unprepared_runs[1];

    // Concurrent serving: 4 client threads, each with its own session and
    // prepared handle, disjoint key phases, one shared system. QPS is the
    // aggregate over all threads' wall-clock.
    const THREADS: u64 = 4;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sys = Arc::clone(&sys);
            scope.spawn(move || {
                let session = Session::new(sys);
                let stmt = session.prepare(PARAM_SQL).expect("prepares");
                for i in 0..N / THREADS {
                    let key = key_of(t * (N / THREADS) + i);
                    black_box(stmt.execute(&params_for(key)).expect("runs"));
                }
            });
        }
    });
    let mixed_qps = qps(start, N);

    let cache = sys.plan_cache_stats();
    println!(
        "(prepared {:.2}x unprepared; plan cache: {} hits / {} misses, hit rate {:.1}%)",
        prepared_qps as f64 / unprepared_qps.max(1) as f64,
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    );

    vec![
        ("prepared_point_lookup_qps", prepared_qps),
        ("unprepared_point_lookup_qps", unprepared_qps),
        ("mixed_clients_qps", mixed_qps),
    ]
}

/// Durability cases — see the module docs. These do real file I/O (write,
/// fsync, reopen) in a per-process tempdir that is removed afterwards, so
/// the numbers reflect the host filesystem's actual fsync cost.
fn durability_cases() -> Vec<(&'static str, u64)> {
    use qpe_htap::engine::{BackgroundCompaction, DurabilityOptions};
    use qpe_htap::SyncPolicy;
    use std::time::Duration;

    let root = std::env::temp_dir().join(format!("qpe_bench_dur_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = TpchConfig::with_scale(0.002);
    let mut out = Vec::new();

    // Group commit vs fsync-per-statement: 32 client threads on the
    // prepared path (front end paid once, so the metric is commit
    // throughput, not parse throughput), disjoint keys, every INSERT
    // acknowledged only once durable. Group commit releases the write lock
    // before the fsync and batches every statement that arrives while a
    // flush is in flight; per-statement fsyncs inside the lock, so the
    // client count buys it nothing.
    let commit_qps = |label: &str, sync: SyncPolicy| -> u64 {
        use qpe_htap::session::Session;
        use qpe_sql::value::Value;
        use std::sync::Arc;

        const THREADS: u64 = 32;
        const PER_THREAD: u64 = 128;
        const INSERT: &str = "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
             c_acctbal, c_mktsegment) VALUES (?, ?, 4, '20-555-000-1111', 10.5, 'machinery')";
        let dir = root.join(label);
        let opts = DurabilityOptions { sync, ..DurabilityOptions::default() };
        let sys =
            Arc::new(HtapSystem::open_with(&dir, &config, opts).expect("opens durable dir"));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let sys = Arc::clone(&sys);
                scope.spawn(move || {
                    let session = Session::new(sys);
                    let stmt = session.prepare(INSERT).expect("prepares");
                    for i in 0..PER_THREAD {
                        let key = (900_000 + t * PER_THREAD + i) as i64;
                        stmt.execute(&[Value::Int(key), Value::Str(format!("customer#{key}"))])
                            .expect("durable insert");
                    }
                });
            }
        });
        let qps = (THREADS * PER_THREAD) as f64 / start.elapsed().as_secs_f64();
        let wal = sys.wal_stats().expect("durable system");
        println!(
            "  ({label}: {} records / {} fsyncs = {:.1} records per fsync)",
            wal.records,
            wal.fsyncs,
            wal.records as f64 / wal.fsyncs.max(1) as f64
        );
        qps as u64
    };
    let group_qps = commit_qps("wal_commit_qps", SyncPolicy::GroupCommit {
        interval: Duration::ZERO,
    });
    let per_stmt_qps = commit_qps("wal_commit_qps_per_statement", SyncPolicy::PerStatement);
    let ratio = group_qps as f64 / per_stmt_qps.max(1) as f64;
    println!("  (group commit is {ratio:.1}x fsync-per-statement)");
    if ratio < 5.0 {
        println!("  (WARNING: group-commit win below the 5x target — fast-fsync host?)");
    }
    out.push(("wal_commit_qps", group_qps));
    out.push(("wal_commit_qps_per_statement", per_stmt_qps));

    // Recovery wall-clock: leave 100k inserted rows sitting in the WAL (no
    // checkpoint), then time the whole `open` — manifest + segment load,
    // chain replay, index and zone rebuild.
    {
        let dir = root.join("recovery_100k");
        let mut sys = HtapSystem::open_with(&dir, &config, DurabilityOptions::default())
            .expect("opens durable dir");
        let base = sys
            .database()
            .stored_table("customer")
            .expect("customer exists")
            .row_count();
        bulk_insert_customers(&mut sys, 1_000_000, 100_000);
        drop(sys); // kill without checkpoint: recovery must replay the WAL
        let start = Instant::now();
        let sys = HtapSystem::open(&dir, &config).expect("recovers");
        let ns = start.elapsed().as_nanos() as u64;
        let report = sys.recovery_report().expect("durable open").clone();
        let rows = sys
            .database()
            .stored_table("customer")
            .expect("customer exists")
            .row_count();
        assert_eq!(rows, base + 100_000, "recovery must replay all 100k rows");
        println!(
            "  (recovered {} WAL records across {} file(s) in {:?})",
            report.wal_records_replayed, report.wal_files_replayed, report.elapsed
        );
        out.push(("recovery_time_100k_rows", ns));
    }

    // Write stall under background compaction: a single writer streams
    // durable INSERTs while the compactor thread repeatedly rebuilds the
    // table offline and swaps it in. p99 statement latency is the stall
    // the swap (not the rebuild) costs the writer.
    {
        let dir = root.join("bg_compact");
        let opts = DurabilityOptions {
            background: Some(BackgroundCompaction {
                min_delta_rows: 1024,
                poll: Duration::from_millis(1),
            }),
            ..DurabilityOptions::default()
        };
        let sys = HtapSystem::open_with(&dir, &config, opts).expect("opens durable dir");
        const WRITES: usize = 6_000;
        let mut lat = Vec::with_capacity(WRITES);
        for i in 0..WRITES {
            let key = 2_000_000 + i;
            let sql = format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES ({key}, 'customer#{key}', 4, '20-555-000-1111', \
                 10.5, 'machinery')"
            );
            let start = Instant::now();
            sys.execute_statement(&sql).expect("durable insert");
            lat.push(start.elapsed().as_nanos() as u64);
        }
        // Every insert lands in the delta; only a compaction swap shrinks
        // it, so a full delta means the compactor never ran.
        let fresh = sys.freshness("customer").expect("table exists");
        assert!(
            fresh.delta_rows < WRITES,
            "background compactor must have merged the delta at least once"
        );
        lat.sort_unstable();
        let p50 = lat[WRITES / 2];
        let p99 = lat[WRITES * 99 / 100];
        println!(
            "  ({} of {WRITES} inserted rows still delta-resident; write latency \
             p50 {p50} ns, p99 {p99} ns, max {} ns)",
            fresh.delta_rows,
            lat[WRITES - 1]
        );
        out.push(("background_compact_p99_write_stall", p99));
    }

    let _ = std::fs::remove_dir_all(&root);
    out
}

/// MVCC mixed-workload cases: reader p99 with and without a concurrent
/// durable writer. Each read pins a snapshot (a brief read lock to clone
/// the `Arc`'d column state) and executes the aggregate entirely lock-free,
/// so a writer streaming group-committed DML should cost readers almost
/// nothing. The writer runs steady-state insert/delete cycles with a
/// compact every 256 ops — the table stays near its baseline size (a
/// growing scan would inflate the busy p99 for reasons unrelated to
/// contention), while the write lock, the WAL and compaction's
/// copy-on-write swap all stay hot under the readers' feet.
fn mvcc_cases() -> Vec<(&'static str, u64)> {
    use qpe_htap::engine::DurabilityOptions;
    use qpe_htap::SyncPolicy;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let root = std::env::temp_dir().join(format!("qpe_bench_mvcc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = TpchConfig::with_scale(0.02);
    let opts = DurabilityOptions {
        sync: SyncPolicy::GroupCommit { interval: Duration::ZERO },
        ..DurabilityOptions::default()
    };
    let sys = Arc::new(HtapSystem::open_with(&root, &config, opts).expect("opens durable dir"));

    const READS: usize = 2_000;
    // A prepared analytical reader: bind + AP-plan once, then per read pin
    // a snapshot and execute the cached plan on it (parameter-free, so this
    // is exactly the prepared-statement serving loop; re-parsing per read
    // would double the read cost and measure the front end instead).
    let probe =
        "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_mktsegment = 'machinery'";
    let (plan, bound) = sys.pin_snapshot().plan(probe).expect("plans");
    let serial = ExecConfig::serial();
    let read_p99 = |sys: &HtapSystem| -> u64 {
        let read_once = || {
            let snap = sys.pin_snapshot();
            let read = execute_parallel(&plan, &bound, snap.database(), &serial);
            black_box(read.expect("snapshot read"));
        };
        for _ in 0..50 {
            read_once();
        }
        let mut lat = Vec::with_capacity(READS);
        for _ in 0..READS {
            let start = Instant::now();
            read_once();
            lat.push(start.elapsed().as_nanos() as u64);
        }
        lat.sort_unstable();
        println!(
            "  (reads: p50 {} p90 {} p99 {} max {} ns)",
            lat[READS / 2],
            lat[READS * 90 / 100],
            lat[READS * 99 / 100],
            lat[READS - 1]
        );
        lat[READS * 99 / 100]
    };

    let quiet_p99 = read_p99(&sys);

    let stop = AtomicBool::new(false);
    let written = AtomicUsize::new(0);
    let busy_p99 = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut key = 4_000_000usize;
            while !stop.load(Ordering::Relaxed) {
                sys.execute_statement(&format!(
                    "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
                     c_acctbal, c_mktsegment) VALUES ({key}, 'customer#{key}', 4, \
                     '20-555-000-1111', 10.5, 'machinery')"
                ))
                .expect("durable insert");
                sys.execute_statement(&format!(
                    "DELETE FROM customer WHERE c_custkey = {key}"
                ))
                .expect("durable delete");
                if key.is_multiple_of(256) {
                    sys.compact("customer");
                }
                key += 1;
                written.fetch_add(1, Ordering::Relaxed);
                // An OLTP-style paced client, not a saturating loop: the
                // metric targets lock-induced reader stalls, and a writer
                // that pegs the CPU measures the kernel scheduler instead
                // (on a single-core host a spinning writer inflates reader
                // p99 by whole timeslices with the locks never contended).
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let p99 = read_p99(&sys);
        stop.store(true, Ordering::Relaxed);
        p99
    });

    let ratio = busy_p99 as f64 / quiet_p99.max(1) as f64;
    println!(
        "  (writer landed {} durable insert/delete cycles during the busy window; \
         reader p99 is {ratio:.2}x the quiet p99)",
        written.load(Ordering::Relaxed)
    );
    if ratio > 1.5 {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores <= 1 {
            println!(
                "  (NOTE: single-core host — reader and writer timeslice one CPU, so the \
                 ratio floor is scheduler-driven CPU sharing, not lock contention; judge \
                 the 1.5x target on a multi-core host)"
            );
        } else {
            println!(
                "  (WARNING: reader p99 above the 1.5x no-writer target — snapshot reads \
                 should not stall behind the writer)"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    vec![
        ("mvcc_reader_p99_no_writer", quiet_p99),
        ("mvcc_reader_p99_with_writer", busy_p99),
    ]
}

/// Value of a `--flag N` style argument, if present.
fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
    // `--mvcc` runs just the mixed-workload snapshot-read cases,
    // print-only — the fast loop for chasing reader-stall regressions.
    if std::env::args().any(|a| a == "--mvcc") {
        for (label, ns) in mvcc_cases() {
            println!("{label:<32} {ns:>12} ns (p99)");
        }
        return;
    }
    // `--governance` runs just the governed-vs-ungoverned overhead pair,
    // print-only — the fast loop for chasing guard-poll regressions.
    if std::env::args().any(|a| a == "--governance") {
        for (label, v) in governance_cases() {
            let unit = if label.ends_with("pct") { "%" } else { "ns/iter" };
            println!("{label:<32} {v:>12} {unit}");
        }
        return;
    }
    // `--threads N` runs the per-engine cases with a parallel AP executor
    // (the TP side and the snapshot's parallel cases are unaffected). The
    // ap_* labels don't encode the thread count, so a threads run is
    // print-only — it must never overwrite the serial baseline.
    let threads_override = arg_value("--threads").and_then(|v| v.parse::<usize>().ok());
    let check_only = check_only || threads_override.is_some();
    if let Some(t) = threads_override {
        println!("(--threads {t}: print-only, BENCH_exec.json untouched)");
        sys.set_ap_threads(t);
    }

    let mut entries = Vec::new();
    for (name, sql) in CASES {
        for engine in [EngineKind::Tp, EngineKind::Ap] {
            let label = format!("{}_{name}", engine.as_str().to_lowercase());
            let ns = time_case(&sys, sql, engine);
            println!("{label:<24} {ns:>12} ns/iter");
            entries.push((label, ns));
        }
    }

    for (label, ns) in write_path_cases() {
        println!("{label:<24} {ns:>12} ns/iter");
        entries.push((label.to_string(), ns));
    }

    for (label, qps) in session_cases() {
        println!("{label:<28} {qps:>12} q/s");
        entries.push((label.to_string(), qps));
    }

    for (label, v) in durability_cases() {
        let unit = if label.contains("qps") { "q/s" } else { "ns" };
        println!("{label:<36} {v:>12} {unit}");
        entries.push((label.to_string(), v));
    }

    for (label, ns) in mvcc_cases() {
        println!("{label:<32} {ns:>12} ns (p99)");
        entries.push((label.to_string(), ns));
    }

    for (label, ns) in pruning_cases() {
        println!("{label:<32} {ns:>12} ns/iter");
        entries.push((label, ns));
    }

    for (label, ns) in encoding_cases() {
        println!("{label:<32} {ns:>12} ns/iter");
        entries.push((label, ns));
    }

    for (label, ns) in parallel_cases() {
        println!("{label:<24} {ns:>12} ns/iter");
        entries.push((label, ns));
    }

    for (label, v) in governance_cases() {
        let unit = if label.ends_with("pct") { "%" } else { "ns/iter" };
        println!("{label:<32} {v:>12} {unit}");
        entries.push((label, v));
    }

    // This binary is the file's only recorder: a run replaces it whole.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_exec.json");
    let mut obj = serde_json::Map::new();
    for (label, ns) in &entries {
        obj.insert(label.clone(), serde_json::Value::from(*ns));
    }
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(obj))
        .expect("snapshot serializes");
    if check_only {
        println!("{json}");
        return;
    }
    std::fs::write(&path, json + "\n").expect("writes BENCH_exec.json");
    println!("wrote {}", path.display());
}
