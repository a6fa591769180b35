//! MVCC snapshot-read properties over the versioned delta store.
//!
//! The central property: a snapshot pinned at epoch E on a system that kept
//! writing is **physically indistinguishable** from a system that stopped at
//! E — same rows AND same `WorkCounters` (base/delta split, encodings, zone
//! maps, pruning), on all three executors (row interpreter, serial batch,
//! parallel batch). The committed-prefix oracle is a second system driven in
//! lockstep one operation behind, compared after every step, so every pinned
//! epoch of the tape is checked.
//!
//! Companions: a threaded stress test (writer threads stream durable-path
//! inserts while reader threads pin snapshots and check prefix-consistency
//! per writer), and a crash case proving per-row begin/end versions survive
//! an unclean kill + WAL replay byte-identically.

use proptest::prelude::*;
use qpe_htap::engine::{EngineKind, HtapSystem};
use qpe_htap::exec::{execute_parallel, execute_scalar, ExecConfig, Row};
use qpe_htap::tpch::TpchConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unique temp directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "qpe_mvcc_{tag}_{}_{n}",
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

/// One randomized operation against both systems.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SimOp {
    Insert,
    Update,
    Delete,
    Compact,
}

fn decode(code: u8) -> SimOp {
    match code % 7 {
        0..=2 => SimOp::Insert,
        3 | 4 => SimOp::Update,
        5 => SimOp::Delete,
        _ => SimOp::Compact,
    }
}

/// Applies one op; determinism makes the live system and the oracle fail
/// identically on e.g. duplicate keys.
fn apply(sys: &HtapSystem, op: SimOp, seed: u64, i: usize) {
    let salt = seed.wrapping_mul(31).wrapping_add(i as u64);
    match op {
        SimOp::Insert => {
            let key = 1_000_000 + salt % 100_000;
            let seg = ["machinery", "building", "household"][(salt % 3) as usize];
            let _ = sys.execute_statement(&format!(
                "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, c_acctbal, \
                 c_mktsegment) VALUES ({key}, 'customer#{key}', {}, '20-000-000-0000', \
                 {}.25, '{seg}')",
                salt % 25,
                salt % 5000
            ));
        }
        SimOp::Update => {
            let lo = 1 + salt % 70;
            let _ = sys.execute_statement(&format!(
                "UPDATE customer SET c_acctbal = c_acctbal + {}, c_mktsegment = 'machinery' \
                 WHERE c_custkey BETWEEN {lo} AND {}",
                salt % 100,
                lo + 5
            ));
        }
        SimOp::Delete => {
            let lo = 1 + salt % 70;
            let _ = sys.execute_statement(&format!(
                "DELETE FROM customer WHERE c_custkey BETWEEN {lo} AND {}",
                lo + 2
            ));
        }
        SimOp::Compact => {
            let _ = sys.compact("customer");
        }
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

/// The two probe queries every pinned epoch is checked with: a full scan
/// (visibility itself) and a filtered aggregate (pruning + kernels over the
/// snapshot's physical layout).
const PROBES: [&str; 2] = [
    "SELECT * FROM customer",
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey >= 500",
];

/// Asserts one pinned snapshot equals the oracle's pinned head: identical
/// rows and counters through the snapshot's own executor, then through the
/// scalar / serial-batch / parallel executors run directly on the pinned
/// database.
fn assert_snapshot_equals_oracle(
    snap: &qpe_htap::engine::Snapshot,
    oracle: &qpe_htap::engine::Snapshot,
    label: &str,
) {
    assert_eq!(
        snap.epoch("customer"),
        oracle.epoch("customer"),
        "{label}: pinned epochs diverge"
    );
    for probe in PROBES {
        let (want_rows, want_c) = oracle.run_sql(probe).expect("oracle probe");
        let (got_rows, got_c) = snap.run_sql(probe).expect("snapshot probe");
        assert_eq!(sorted(got_rows), sorted(want_rows.clone()), "{label}: rows for {probe:?}");
        assert_eq!(got_c, want_c, "{label}: counters for {probe:?}");

        // All three executors over the pinned database agree with it.
        let (plan, bound) = snap.plan(probe).expect("snapshot plan");
        let db = snap.database();
        let (s_rows, s_c) = execute_scalar(&plan, &bound, db, EngineKind::Ap).expect("scalar");
        assert_eq!(sorted(s_rows), sorted(want_rows.clone()), "{label}: scalar rows");
        assert_eq!(s_c, want_c, "{label}: scalar counters");
        for threads in [1usize, 2] {
            let cfg = ExecConfig { threads, morsel_rows: 48, ..ExecConfig::serial() };
            let (b_rows, b_c) = execute_parallel(&plan, &bound, db, &cfg).expect("batch");
            assert_eq!(sorted(b_rows), sorted(want_rows.clone()), "{label}: batch@{threads} rows");
            assert_eq!(b_c, want_c, "{label}: batch@{threads} counters");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The sweep: random DML/compact tape. The live system runs one op
    /// ahead and pins a snapshot after every op; the oracle trails one op
    /// behind, so each pinned snapshot is compared against a system whose
    /// *head* is that epoch — while the live system has already moved on
    /// (the snapshot reads versioned data a concurrent writer is past).
    #[test]
    fn pinned_snapshots_equal_the_committed_prefix_oracle(
        codes in prop::collection::vec(any::<u8>(), 1..10usize),
        seed in any::<u64>(),
    ) {
        let cfg = config();
        let sys = HtapSystem::new(&cfg);
        let oracle = HtapSystem::new(&cfg);

        // Epoch 0: both untouched.
        assert_snapshot_equals_oracle(&sys.pin_snapshot(), &oracle.pin_snapshot(), "pristine");

        let mut pinned = Vec::new();
        for (i, &code) in codes.iter().enumerate() {
            apply(&sys, decode(code), seed, i);
            pinned.push((i, sys.pin_snapshot()));
        }
        // Replay the tape on the oracle; after its op k it sits exactly at
        // the live system's pin point k.
        for (i, &code) in codes.iter().enumerate() {
            apply(&oracle, decode(code), seed, i);
            let (k, snap) = &pinned[i];
            assert_snapshot_equals_oracle(
                snap,
                &oracle.pin_snapshot(),
                &format!("after op {k} ({:?})", decode(code)),
            );
        }
    }
}

/// Threaded stress: writer threads stream inserts while reader threads pin
/// snapshots mid-flight. Each reader checks (a) snapshot stability — the
/// same snapshot answers identically while writers churn — and (b) the
/// committed-prefix property per writer: because each writer inserts its
/// keys in index order, the keys of writer `w` visible in any snapshot must
/// be a contiguous prefix of that writer's sequence.
#[test]
fn concurrent_writers_and_snapshot_readers() {
    const WRITERS: u64 = 3;
    const READERS: usize = 3;
    const PER_WRITER: u64 = 40;
    let sys = Arc::new(HtapSystem::new(&config()));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let sys = Arc::clone(&sys);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let key = 3_000_000 + w * 100_000 + i;
                    sys.execute_statement(&format!(
                        "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
                         c_acctbal, c_mktsegment) VALUES ({key}, 'w{w}#{i}', 1, \
                         '20-000-000-0000', 10.25, 'machinery')"
                    ))
                    .expect("insert commits");
                }
            });
        }
        for r in 0..READERS {
            let sys = Arc::clone(&sys);
            scope.spawn(move || {
                let probe = "SELECT c_custkey FROM customer WHERE c_custkey >= 3000000";
                let mut last_total = 0usize;
                for _ in 0..20 {
                    let snap = sys.pin_snapshot();
                    let (rows, counters) = snap.run_sql(probe).expect("snapshot read");
                    // (a) Stability: the pinned snapshot's answer does not
                    // move while writers keep committing.
                    let (again, again_c) = snap.run_sql(probe).expect("re-read");
                    assert_eq!(rows, again, "reader {r}: snapshot answer moved");
                    assert_eq!(counters, again_c, "reader {r}: snapshot counters moved");
                    // (b) Prefix-consistency per writer.
                    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); WRITERS as usize];
                    for row in &rows {
                        let key = row[0].as_int().expect("int key") as u64 - 3_000_000;
                        seen[(key / 100_000) as usize].push(key % 100_000);
                    }
                    for (w, keys) in seen.iter_mut().enumerate() {
                        keys.sort_unstable();
                        let want: Vec<u64> = (0..keys.len() as u64).collect();
                        assert_eq!(
                            keys, &want,
                            "reader {r}: writer {w}'s visible keys are not a prefix"
                        );
                    }
                    // Total visible rows never decreases across later pins
                    // (insert-only workload).
                    assert!(
                        rows.len() >= last_total,
                        "reader {r}: snapshot went backwards ({} < {last_total})",
                        rows.len()
                    );
                    last_total = rows.len();
                }
            });
        }
    });

    let out = sys
        .run_sql("SELECT COUNT(*) FROM customer WHERE c_custkey >= 3000000")
        .expect("final count");
    assert_eq!(
        out.tp.rows[0][0].as_int().unwrap(),
        (WRITERS * PER_WRITER) as i64,
        "every acknowledged insert is visible at the head"
    );
}

/// Begin/end row versions survive an unclean kill + WAL replay
/// byte-identically: replay reassigns stamps deterministically in commit
/// order, so a recovered snapshot boundary is exactly the pre-crash one.
#[test]
fn row_versions_survive_replay_byte_identically() {
    let dir = TmpDir::new("versions");
    let cfg = config();
    let sys = HtapSystem::open(&dir.0, &cfg).expect("open");
    for i in 0..14 {
        // Mix of inserts / updates / deletes / compacts, including a
        // compact mid-tape so history_floor moves.
        apply(&sys, decode((i * 5 + 2) as u8), 97, i as usize);
    }
    let (begin_before, end_before, version_before, floor_before) = {
        let db = sys.database();
        let cols = &db.stored_table("customer").expect("customer").cols;
        let (b, e) = cols.row_versions();
        (b.to_vec(), e.to_vec(), cols.version(), cols.history_floor())
    };
    drop(sys); // unclean: no close(), recovery replays the WAL tail

    let recovered = HtapSystem::open(&dir.0, &cfg).expect("recover");
    let db = recovered.database();
    let cols = &db.stored_table("customer").expect("customer").cols;
    let (b, e) = cols.row_versions();
    assert_eq!(cols.version(), version_before, "visibility epoch diverged");
    assert_eq!(cols.history_floor(), floor_before, "history floor diverged");
    assert_eq!(b, &begin_before[..], "begin versions diverged after replay");
    assert_eq!(e, &end_before[..], "end versions diverged after replay");
}
