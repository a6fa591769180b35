//! Fault-tolerant statement lifecycle: the sweep behind PR 9.
//!
//! Four failure families, each with the recovery the engine promises:
//!
//! * **Transient I/O faults** — a durable site fails N < retry-budget times
//!   and then heals. The bounded retry loop absorbs every injected error:
//!   all statements acknowledge, no write is lost, and the final state is
//!   byte-identical (rows AND work counters) to a fault-free oracle running
//!   the same tape.
//! * **Governance** — cancellation from another thread lands inside an
//!   in-flight 4-thread parallel scan; deadlines and memory budgets trip
//!   deterministically before (DML) or during (scan) execution. A tripped
//!   statement never poisons the session: the next statement runs clean.
//! * **Panics** — a failpoint panic inside the DML path (after rows apply,
//!   before the WAL append) is contained at the session boundary as
//!   `Internal`, the poisoned write lock is recovered, and the system
//!   degrades to read-only until `resume_writes()`.
//! * **Exhausted / persistent faults** — when the retry budget runs out the
//!   system trips read-only degraded mode: reads keep serving, writes fail
//!   structurally with `ReadOnly`, `health()` names the cause, and
//!   `resume_writes()` restores service once the fault clears. The
//!   background compactor survives the same faults with per-table backoff
//!   instead of dying or spinning.

use proptest::prelude::*;
use qpe_htap::engine::{BackgroundCompaction, DurabilityOptions, EngineKind, HtapSystem};
use qpe_htap::exec::{ExecConfig, Row, StatementLimits, WorkCounters};
use qpe_htap::storage::FailPoints;
use qpe_htap::tpch::TpchConfig;
use qpe_htap::{HtapError, RetryPolicy, Session};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unique temp directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "qpe_fault_{tag}_{}_{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TmpDir(path)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> TpchConfig {
    TpchConfig::with_scale(0.0005)
}

fn opts(fp: FailPoints) -> DurabilityOptions {
    DurabilityOptions {
        failpoints: fp,
        ..DurabilityOptions::default()
    }
}

/// A retry policy with no real sleeping, so exhaustion tests stay fast.
fn eager_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy { max_attempts, base_backoff: Duration::ZERO, max_backoff: Duration::ZERO }
}

/// One randomized operation (same tape model as the crash sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
enum SimOp {
    Insert,
    Update,
    Delete,
    Compact,
    Checkpoint,
}

fn decode(code: u8) -> SimOp {
    match code % 8 {
        0..=2 => SimOp::Insert,
        3 | 4 => SimOp::Update,
        5 => SimOp::Delete,
        6 => SimOp::Compact,
        _ => SimOp::Checkpoint,
    }
}

fn apply(sys: &HtapSystem, op: SimOp, seed: u64, i: usize) -> Result<(), HtapError> {
    let salt = seed.wrapping_mul(31).wrapping_add(i as u64);
    match op {
        SimOp::Insert => {
            let key = 1_000_000 + salt % 100_000;
            let seg = ["machinery", "building", "household"][(salt % 3) as usize];
            sys.execute_statement(&format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES ({key}, 'customer#{key}', {}, '20-000-000-0000', \
                 {}.25, '{seg}')",
                salt % 25,
                salt % 5000
            ))
            .map(|_| ())
        }
        SimOp::Update => {
            let lo = 1 + salt % 70;
            sys.execute_statement(&format!(
                "UPDATE customer SET c_acctbal = c_acctbal + {}, c_mktsegment = 'machinery' \
                 WHERE c_custkey BETWEEN {lo} AND {}",
                salt % 100,
                lo + 5
            ))
            .map(|_| ())
        }
        SimOp::Delete => {
            let lo = 1 + salt % 70;
            sys.execute_statement(&format!(
                "DELETE FROM customer WHERE c_custkey BETWEEN {lo} AND {}",
                lo + 2
            ))
            .map(|_| ())
        }
        SimOp::Compact => {
            sys.compact("customer");
            Ok(())
        }
        SimOp::Checkpoint => sys.checkpoint().map(|_| ()),
    }
}

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

fn state(sys: &HtapSystem) -> (Vec<Row>, WorkCounters, WorkCounters) {
    let out = sys.run_sql("SELECT * FROM customer").expect("full scan");
    (sorted(out.tp.rows.clone()), out.tp.counters, out.ap.counters)
}

/// Durable sites a transient error can be injected at. All are wrapped in
/// bounded retry: WAL flushes retry the fsync (the batch stays buffered),
/// segment seals and manifest swaps retry by idempotent re-creation.
const TRANSIENT_SITES: [&str; 3] = ["wal", "seg", "manifest"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The transient sweep: a random op tape with a transient fault (fails
    /// `count` times, then heals) armed at a random durable site before a
    /// random statement. `count` stays under the retry budget, so every
    /// statement must acknowledge, the system must stay healthy, and the
    /// final state must equal a fault-free oracle's — acked writes are
    /// never lost to an absorbed fault.
    #[test]
    fn bounded_retry_absorbs_transient_faults(
        codes in prop::collection::vec(any::<u8>(), 1..16usize),
        seed in any::<u64>(),
        site_idx in 0usize..3,
        arm_at in 0usize..16,
        count in 1u32..4,
    ) {
        let site = TRANSIENT_SITES[site_idx];
        let dir = TmpDir::new("transient");
        let fp = FailPoints::default();
        let cfg = config();
        let sys = HtapSystem::open_with(&dir.0, &cfg, opts(fp.clone())).expect("open");
        let oracle = HtapSystem::new(&cfg);

        for (i, &code) in codes.iter().enumerate() {
            if i == arm_at % codes.len() {
                fp.arm_errors(site, count);
            }
            let op = decode(code);
            let got = apply(&sys, op, seed, i);
            let want = apply(&oracle, op, seed, i);
            if op == SimOp::Checkpoint {
                // The in-memory oracle has nothing to checkpoint; the
                // durable side must absorb the fault and succeed.
                prop_assert!(got.is_ok(), "checkpoint not absorbed at op {}: {:?}", i, got);
            } else {
                // Statement outcomes agree op-for-op (duplicate keys fail
                // on both; injected faults must be invisible).
                prop_assert_eq!(got.is_ok(), want.is_ok(), "op {} diverged: {:?}", i, got);
            }
        }
        prop_assert!(!fp.crashed(), "transient faults never escalate to a crash");
        prop_assert!(!sys.is_degraded(), "absorbed faults must not trip degraded mode");
        let live = state(&sys);
        prop_assert_eq!(&live, &state(&oracle), "live state diverged from fault-free oracle");

        // And the acked tape survives an unclean kill + recovery.
        drop(sys);
        let recovered = HtapSystem::open(&dir.0, &cfg).expect("recovery");
        prop_assert_eq!(&state(&recovered), &live, "recovered state diverged");
    }
}

/// Cross-thread cancellation lands inside an in-flight 4-thread parallel
/// aggregation and surfaces as `Cancelled` — and the session immediately
/// runs the next statement clean (the flag is lowered at statement start).
#[test]
fn cancellation_interrupts_a_parallel_scan() {
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
    sys.set_exec_config(ExecConfig { threads: 4, morsel_rows: 8, ..ExecConfig::serial() });
    let session = Session::new(Arc::new(sys));
    let sql = "SELECT c_nationkey, COUNT(*), SUM(c_acctbal), AVG(c_acctbal) \
               FROM customer, orders WHERE o_custkey = c_custkey \
               GROUP BY c_nationkey ORDER BY c_nationkey";

    // The cancel window spans flag-clear to the post-execution final check,
    // i.e. nearly the whole statement; a sweep of delays makes one land.
    let mut cancelled = false;
    for attempt in 0..60u64 {
        let handle = session.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(attempt * 150));
            handle.cancel();
        });
        let out = session.execute_sql(sql);
        canceller.join().expect("canceller thread");
        match out {
            Err(HtapError::Cancelled) => {
                cancelled = true;
                break;
            }
            Err(e) => panic!("cancellation must not surface as {e}"),
            Ok(_) => {} // cancel landed before the statement started; retry
        }
    }
    assert!(cancelled, "no cancel landed in-flight across the delay sweep");

    // The raised flag belongs to the cancelled statement only.
    let next = session.execute_sql("SELECT COUNT(*) FROM customer").expect("next statement");
    assert!(next.as_query().is_some());
}

/// Holds one AP-pinned statement to its guard at scale: a deadline a
/// quarter of the way in returns `Timeout` well before the statement would
/// have finished, a cross-thread cancel swept across its duration returns
/// `Cancelled`, and the next run returns the full result again.
fn assert_stays_governed(session: &Session, sql: &str) {
    let rows_of = |out: &qpe_htap::engine::StatementOutcome| {
        out.as_pinned().expect("pinned query").run.rows.clone()
    };
    let want = rows_of(&session.execute_sql(sql).expect("warm-up run"));
    assert!(!want.is_empty());
    let started = Instant::now();
    session.execute_sql(sql).expect("ungoverned run");
    let full = started.elapsed();

    // The loops poll the guard, so the statement returns near the deadline
    // rather than at its end; host noise gets a few attempts to show that
    // once.
    let limits = StatementLimits { timeout: Some(full / 4), memory_budget: None };
    let mut stopped_early = false;
    for _ in 0..5 {
        let started = Instant::now();
        match session.execute_sql_with(sql, &limits) {
            Err(HtapError::Timeout { limit }) => assert_eq!(limit, full / 4),
            other => panic!("expected Timeout for {sql}, got {other:?}"),
        }
        stopped_early |= started.elapsed() < full * 3 / 4;
    }
    assert!(stopped_early, "deadline only ever surfaced after the loops finished: {sql}");

    let mut cancelled = false;
    for attempt in 0..40u32 {
        let handle = session.cancel_handle();
        let delay = full * attempt / 40;
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(delay);
            handle.cancel();
        });
        let out = session.execute_sql(sql);
        canceller.join().expect("canceller thread");
        match out {
            Err(HtapError::Cancelled) => {
                cancelled = true;
                break;
            }
            Err(e) => panic!("cancellation must not surface as {e}"),
            Ok(out) => assert_eq!(rows_of(&out), want, "a late cancel leaves the result whole"),
        }
    }
    assert!(cancelled, "no cancel landed in-flight across the delay sweep: {sql}");

    let again = session.execute_sql(sql).expect("the session runs clean afterwards");
    assert_eq!(rows_of(&again), want);
}

/// The typed selection, aggregation and top-N loops answer to the statement
/// guard at scale, on the serial executor as well as the parallel one: over
/// 600 k `lineitem` rows at one and two AP threads, a bare filter (a FOR
/// column whose literal straddles its blocks, refined by float and date
/// columns over the selection), a dictionary-key group-by and a
/// single-float-key top-N. `l_quantity >= 1` alone is decided by block
/// envelopes in about 0.1 ms, too short for a wall-clock deadline.
#[test]
fn typed_group_by_and_top_n_stay_governed_at_scale() {
    let mut sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.1)));
    for threads in [1, 2] {
        Arc::get_mut(&mut sys)
            .expect("no session outlives its loop")
            .set_exec_config(ExecConfig::with_threads(threads));
        let session = Session::new(Arc::clone(&sys));
        session.pin_engine(Some(EngineKind::Ap));
        for sql in [
            "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 25 AND l_extendedprice >= 0.0 \
             AND l_discount >= 0.0 AND l_shipdate >= DATE '1990-01-01'",
            "SELECT l_linestatus, COUNT(*), SUM(l_extendedprice) FROM lineitem \
             GROUP BY l_linestatus ORDER BY l_linestatus",
            "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity >= 1 \
             ORDER BY l_extendedprice DESC LIMIT 20",
        ] {
            assert_stays_governed(&session, sql);
        }
    }
}

/// The integer-keyed join's build and probe loops answer to the guard on
/// the serial executor as well as the parallel one: orders ⋈ lineitem over
/// 600 k probe rows, at one and two AP threads.
#[test]
fn typed_join_stays_governed_at_scale() {
    let mut sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.1)));
    for threads in [1, 2] {
        Arc::get_mut(&mut sys)
            .expect("no session outlives its loop")
            .set_exec_config(ExecConfig::with_threads(threads));
        let session = Session::new(Arc::clone(&sys));
        session.pin_engine(Some(EngineKind::Ap));
        assert_stays_governed(
            &session,
            "SELECT COUNT(*), SUM(l_extendedprice) FROM orders, lineitem \
             WHERE l_orderkey = o_orderkey AND o_orderstatus = 'f'",
        );
    }
}

/// A zero deadline trips `Timeout` on queries (at the first governance
/// check) and on DML (before any row is mutated); clearing the limit
/// restores service on the same system.
#[test]
fn deadlines_trip_timeouts_without_side_effects() {
    let mut sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
    let rows_before = sys.run_sql("SELECT COUNT(*) FROM customer").expect("count").tp.rows.clone();

    sys.set_statement_limits(StatementLimits {
        timeout: Some(Duration::ZERO),
        memory_budget: None,
    });
    let limit = Duration::ZERO;
    match sys.run_sql("SELECT COUNT(*) FROM customer") {
        Err(HtapError::Timeout { limit: l }) => assert_eq!(l, limit),
        other => panic!("expected Timeout, got {other:?}"),
    }
    // DML is checked before the first mutation: a timed-out INSERT leaves
    // no partial write behind.
    let insert = "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                  c_mktsegment) VALUES (900001, 'c#900001', 1, '20-000-000-0000', 1.25, \
                  'machinery')";
    assert!(matches!(
        sys.execute_statement(insert),
        Err(HtapError::Timeout { .. })
    ));

    sys.set_statement_limits(StatementLimits::unlimited());
    let rows_after = sys.run_sql("SELECT COUNT(*) FROM customer").expect("count").tp.rows.clone();
    assert_eq!(rows_before, rows_after, "timed-out DML must not mutate");
    sys.execute_statement(insert).expect("insert after lifting the limit");
}

/// Per-call limits via the session API: a statement-scoped memory budget
/// trips `MemoryBudget` with the attempted size, while the same query under
/// the session default (unlimited) succeeds untouched.
#[test]
fn memory_budgets_bound_result_materialization() {
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.002)));
    let session = Session::new(sys);
    let sql = "SELECT * FROM customer";
    session.execute_sql(sql).expect("unbudgeted run succeeds");

    let tight = StatementLimits { timeout: None, memory_budget: Some(64) };
    match session.execute_sql_with(sql, &tight) {
        Err(HtapError::MemoryBudget { budget_bytes, attempted_bytes }) => {
            assert_eq!(budget_bytes, 64);
            assert!(attempted_bytes > 64, "the violation records what was attempted");
        }
        other => panic!("expected MemoryBudget, got {other:?}"),
    }
    // The budget was statement-scoped: the next call is clean.
    session.execute_sql(sql).expect("budget does not stick to the session");
}

/// A panic inside the DML path (rows applied, WAL append not yet reached)
/// is contained at the session boundary as `Internal`; the poisoned write
/// lock is recovered on next access, the system degrades to read-only, and
/// `resume_writes()` restores write service.
#[test]
fn writer_panic_is_contained_and_degrades_to_read_only() {
    let dir = TmpDir::new("panic");
    let cfg = config();
    let fp = FailPoints::default();
    let sys = Arc::new(HtapSystem::open_with(&dir.0, &cfg, opts(fp.clone())).expect("open"));
    let session = Session::new(Arc::clone(&sys));

    let insert = |key: u64| {
        format!(
            "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
             c_mktsegment) VALUES ({key}, 'c#{key}', 1, '20-000-000-0000', 1.25, 'machinery')"
        )
    };
    session.execute_sql(&insert(910_001)).expect("healthy insert");

    fp.arm_panic("dml:after_apply");
    match session.execute_sql(&insert(910_002)) {
        Err(HtapError::Internal(msg)) => {
            assert!(msg.contains("dml:after_apply"), "panic payload surfaced: {msg}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }

    // Reads keep serving (the poisoned lock is recovered under the hood),
    // and that first recovery trips degraded mode with a panic diagnosis.
    session.execute_sql("SELECT COUNT(*) FROM customer").expect("reads survive the panic");
    let health = sys.health();
    assert!(health.degraded);
    assert!(health.writer_panics >= 1);
    assert!(
        health.degraded_cause.as_deref().unwrap_or("").contains("poisoned"),
        "cause names the poisoned lock: {:?}",
        health.degraded_cause
    );
    assert!(matches!(
        session.execute_sql(&insert(910_003)),
        Err(HtapError::ReadOnly { .. })
    ));

    sys.resume_writes().expect("nothing durable is broken");
    session.execute_sql(&insert(910_004)).expect("writes restored");
    assert!(!sys.is_degraded());
}

/// The full degraded round trip on a persistent WAL fault: retry budget
/// exhausts → writes fail and the system turns read-only; reads and
/// snapshots keep serving; `health()` names the cause; `resume_writes()`
/// refuses while the fault persists, succeeds after it clears; and the
/// acknowledged writes survive a post-recovery reopen.
#[test]
fn exhausted_retries_enter_and_exit_degraded_mode() {
    let dir = TmpDir::new("degraded");
    let cfg = config();
    let fp = FailPoints::default();
    let sys = HtapSystem::open_with(
        &dir.0,
        &cfg,
        DurabilityOptions {
            failpoints: fp.clone(),
            retry: eager_retry(2),
            ..DurabilityOptions::default()
        },
    )
    .expect("open");

    for i in 0..4 {
        apply(&sys, SimOp::Insert, 77, i).expect("healthy insert");
    }
    let acked = state(&sys);

    // A fault that outlives the retry budget: every WAL flush fails.
    fp.arm_errors("wal", u32::MAX);
    assert!(apply(&sys, SimOp::Insert, 77, 4).is_err(), "exhausted retries surface");
    let health = sys.health();
    assert!(health.degraded);
    assert!(
        health.degraded_cause.as_deref().unwrap_or("").contains("wal"),
        "cause names the failing site: {:?}",
        health.degraded_cause
    );
    assert!(health.wal_flush_retries >= 1, "the retry loop actually ran");

    // Structural write rejection; reads and snapshots keep serving.
    match apply(&sys, SimOp::Insert, 77, 5) {
        Err(HtapError::ReadOnly { cause }) => assert!(cause.contains("wal")),
        other => panic!("expected ReadOnly, got {other:?}"),
    }
    assert!(matches!(sys.checkpoint(), Err(HtapError::ReadOnly { .. })));
    assert!(sys.run_sql("SELECT COUNT(*) FROM customer").is_ok());
    let snap = sys.pin_snapshot();
    assert!(snap.run_sql("SELECT COUNT(*) FROM customer").is_ok());

    // Resume refuses while the fault persists (the re-probe fails) …
    assert!(sys.resume_writes().is_err());
    assert!(sys.is_degraded());

    // … and succeeds once it clears.
    fp.heal("wal");
    sys.resume_writes().expect("probe succeeds after heal");
    assert!(!sys.is_degraded());
    apply(&sys, SimOp::Insert, 77, 6).expect("writes restored");
    assert!(sys.health().degraded_cause.is_none());

    // Durable state reconverges with the live state at resume: the revived
    // WAL flushes the retained batch, so the statement that failed mid-WAL
    // (rows applied, record stuck in the buffer) survives wholly alongside
    // every acked write, while the structurally rejected one left no trace.
    let live = state(&sys);
    assert_eq!(
        live.0.len(),
        acked.0.len() + 2,
        "failing + post-resume inserts are live in memory"
    );
    drop(sys);
    let recovered = HtapSystem::open(&dir.0, &cfg).expect("recover");
    assert_eq!(state(&recovered), live, "recovery reconverges with the live state");
}

/// The background compactor survives durable faults: failures are counted
/// and backed off per table (no spin, no silent swallowing), and service
/// resumes once the fault heals.
#[test]
fn compactor_backs_off_on_failures_and_recovers() {
    let dir = TmpDir::new("compactor");
    let cfg = config();
    let fp = FailPoints::default();
    let sys = HtapSystem::open_with(
        &dir.0,
        &cfg,
        DurabilityOptions {
            failpoints: fp.clone(),
            retry: eager_retry(2),
            background: Some(BackgroundCompaction {
                min_delta_rows: 4,
                poll: Duration::from_millis(1),
            }),
            ..DurabilityOptions::default()
        },
    )
    .expect("open");

    // Make every WAL flush fail, then keep replenishing delta debt (healing
    // and re-probing the WAL just long enough to insert) until the
    // compactor both records a failed compaction — its Compact record's
    // commit exhausts the retries — and skips a poll in backoff. The
    // compactor races us (it can drain the debt before the fault lands),
    // hence the loop rather than a single arm.
    let mut next_key = 0usize;
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let health = sys.health();
        if health.compactor_failures >= 1 && health.compactor_backoffs >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "compactor failure accounting never engaged; health {health:?}"
        );
        if sys.freshness("customer").expect("customer exists").delta_rows < 4 {
            fp.heal("wal");
            let _ = sys.resume_writes(); // revive the dead latch between rounds
            for _ in 0..8 {
                let _ = apply(&sys, SimOp::Insert, 91, next_key);
                next_key += 1;
            }
            fp.arm_errors("wal", u32::MAX);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let health = sys.health();
    assert!(health.compactor_failures >= 1, "compaction failures are counted, not swallowed");
    assert!(health.compactor_backoffs >= 1, "failures trigger backoff, not spin");

    // Heal; the backoff expires and compaction eventually drains the delta.
    fp.heal("wal");
    sys.resume_writes().expect("probe after heal");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fresh = sys.freshness("customer").expect("customer exists");
        // Below the trigger threshold counts as drained: the compactor's
        // contract is bounded delta debt, not zero.
        if fresh.delta_rows < 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "compactor never recovered after heal; {} delta rows left, health {:?}",
            fresh.delta_rows,
            sys.health()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
