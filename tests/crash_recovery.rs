//! Crash-injection sweep for the durability layer.
//!
//! The property: for ANY interleaving of DML / compact / checkpoint and a
//! simulated kill at ANY durable I/O site (WAL flush, segment flush,
//! manifest flush, either side of the manifest rename, between segment
//! writes and the manifest), re-opening the directory recovers exactly the
//! committed prefix — TP scan ≡ AP scan ≡ an in-memory oracle that applied
//! only the acknowledged statements (or, when the kill landed after the
//! failing statement's bytes reached disk, the acknowledged statements
//! plus that one). Rows AND work counters must match: recovery rebuilds
//! the same physical layout (base/delta split, encodings, zone maps), not
//! just the same logical contents.
//!
//! Deterministic companions cover torn WAL tails, recovery idempotence
//! (re-running recovery is a no-op, including after a second unclean kill
//! mid-recovery), clean close/reopen byte-identity, group-commit batching
//! under concurrency, and background-compaction equivalence.

use proptest::prelude::*;
use qpe_htap::engine::{BackgroundCompaction, DurabilityOptions, HtapSystem};
use qpe_htap::exec::{Row, WorkCounters};
use qpe_htap::storage::FailPoints;
use qpe_htap::tpch::TpchConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Unique temp directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "qpe_crash_{tag}_{}_{n}",
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

/// One randomized operation against the durable system (and the oracle).
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

/// Applies one op. Statement errors (duplicate keys, crashed storage) are
/// legal outcomes — determinism makes the oracle fail identically, and the
/// crash case is what the sweep is for. `Checkpoint` on the in-memory
/// oracle is a no-op (it has nothing to checkpoint).
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
        SimOp::Checkpoint => {
            let _ = sys.checkpoint();
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

/// Full `customer` scan through the dual-engine pipeline (which itself
/// asserts TP ≡ AP), returning sorted rows plus both engines' counters.
fn state(sys: &HtapSystem) -> (Vec<Row>, WorkCounters, WorkCounters) {
    let out = sys.run_sql("SELECT * FROM customer").expect("scan recovered/oracle state");
    (sorted(out.tp.rows.clone()), out.tp.counters, out.ap.counters)
}

fn assert_states_equal(
    label: &str,
    got: &(Vec<Row>, WorkCounters, WorkCounters),
    want: &(Vec<Row>, WorkCounters, WorkCounters),
) {
    assert_eq!(got.0, want.0, "{label}: rows diverge");
    assert_eq!(got.1, want.1, "{label}: TP work counters diverge");
    assert_eq!(got.2, want.2, "{label}: AP work counters diverge");
}

/// Every site a crash can land on. Flush sites ("wal"/"seg"/"manifest")
/// honor the keep-fraction (torn writes); control sites fire whole.
const SITES: [&str; 6] = [
    "wal",
    "seg",
    "manifest",
    "manifest:pre_rename",
    "manifest:post_rename",
    "ckpt:after_segments",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The main sweep: random op tape × random crash site/countdown/tear
    /// fraction. Kill, reopen, compare against the committed-prefix oracle.
    #[test]
    fn recovery_restores_the_committed_prefix(
        codes in prop::collection::vec(any::<u8>(), 1..20usize),
        seed in any::<u64>(),
        site_idx in 0usize..6,
        countdown in 1u32..6,
        keep_idx in 0usize..3,
    ) {
        let site = SITES[site_idx];
        let keep = [0.0, 0.5, 1.0][keep_idx];
        let dir = TmpDir::new("sweep");
        let fp = FailPoints::default();
        fp.arm_partial(site, countdown, keep);

        let cfg = config();
        let mut acked = 0usize;
        let mut failing: Option<usize> = None;
        match HtapSystem::open_with(&dir.0, &cfg, opts(fp.clone())) {
            Err(_) => {
                // The kill landed inside the initial checkpoint; nothing
                // was ever acknowledged.
                prop_assert!(fp.crashed(), "open failed without a simulated crash");
            }
            Ok(sys) => {
                for (i, &code) in codes.iter().enumerate() {
                    apply(&sys, decode(code), seed, i);
                    if fp.crashed() {
                        failing = Some(i);
                        break;
                    }
                    acked = i + 1;
                }
                drop(sys); // unclean: no close(), no final checkpoint
            }
        }

        // Recovery must succeed on whatever the kill left behind — torn
        // tails and half-written files are detected and discarded, never
        // panicked on.
        let recovered = HtapSystem::open(&dir.0, &cfg).expect("recovery never fails");
        let got = state(&recovered);

        // Oracle: same generated data, same acknowledged statements.
        let oracle = HtapSystem::new(&cfg);
        for (i, &code) in codes[..acked].iter().enumerate() {
            apply(&oracle, decode(code), seed, i);
        }
        let want_acked = state(&oracle);
        if got == want_acked {
            return Ok(());
        }
        // The failing statement's bytes may have reached disk before the
        // kill (keep fraction 1.0, or a crash after the fsync): the other
        // legal outcome is acked + that one statement.
        let failing = failing.expect("no failing op, but state diverged from the acked oracle");
        apply(&oracle, decode(codes[failing]), seed, failing);
        let want_plus = state(&oracle);
        assert_states_equal(
            "recovered state matches neither acked nor acked+failing oracle",
            &got,
            &want_plus,
        );
    }
}

/// A torn WAL tail (partial flush of a committed-in-flight statement) is
/// detected by checksum, physically truncated, and recovery lands on the
/// acknowledged prefix.
#[test]
fn torn_wal_tail_is_truncated_and_prefix_recovered() {
    let dir = TmpDir::new("torn");
    let cfg = config();
    let fp = FailPoints::default();
    let sys = HtapSystem::open_with(&dir.0, &cfg, opts(fp.clone())).expect("open");
    for i in 0..5 {
        apply(&sys, SimOp::Insert, 7, i);
    }
    // The 6th statement's flush tears mid-record.
    fp.arm_partial("wal", 1, 0.3);
    apply(&sys, SimOp::Insert, 7, 5);
    assert!(fp.crashed());
    drop(sys);

    let recovered = HtapSystem::open(&dir.0, &cfg).expect("recover");
    let report = recovered.recovery_report().expect("durable open has a report").clone();
    assert!(!report.created);
    assert!(report.torn_bytes_discarded > 0, "the torn tail was measured");
    assert_eq!(report.wal_records_replayed, 5);

    let oracle = HtapSystem::new(&cfg);
    for i in 0..5 {
        apply(&oracle, SimOp::Insert, 7, i);
    }
    assert_states_equal("torn-tail recovery", &state(&recovered), &state(&oracle));
}

/// Re-running recovery is a no-op: same manifest version, same rows, same
/// counters — even when the first recovery itself dies uncleanly (the
/// double-crash case: its only disk effect, truncating torn tails, is
/// idempotent).
#[test]
fn recovery_is_idempotent_across_repeated_and_interrupted_runs() {
    let dir = TmpDir::new("idem");
    let cfg = config();
    let fp = FailPoints::default();
    let sys = HtapSystem::open_with(&dir.0, &cfg, opts(fp.clone())).expect("open");
    for i in 0..8 {
        apply(&sys, decode(i as u8), 13, i);
    }
    sys.checkpoint().expect("checkpoint");
    for i in 8..12 {
        apply(&sys, decode(i as u8), 13, i);
    }
    fp.arm_partial("wal", 1, 0.5);
    apply(&sys, SimOp::Insert, 13, 12);
    assert!(fp.crashed());
    drop(sys);

    // First recovery: truncates the torn tail, replays, then dies without
    // a clean close (simulating a second kill right after recovery).
    let first = HtapSystem::open(&dir.0, &cfg).expect("first recovery");
    let report1 = first.recovery_report().unwrap().clone();
    let state1 = state(&first);
    drop(first);

    // Second recovery over the already-recovered directory.
    let second = HtapSystem::open(&dir.0, &cfg).expect("second recovery");
    let report2 = second.recovery_report().unwrap().clone();
    assert_eq!(report1.manifest_version, report2.manifest_version);
    assert_eq!(report1.wal_records_replayed, report2.wal_records_replayed);
    assert_eq!(report2.torn_bytes_discarded, 0, "first recovery already truncated the tail");
    assert_states_equal("second recovery", &state(&second), &state1);

    // And writes still work on the twice-recovered system (the re-opened
    // WAL generation appends after the last good record).
    apply(&second, SimOp::Insert, 99, 0);
    drop(second);
    let third = HtapSystem::open(&dir.0, &cfg).expect("third open");
    assert_eq!(state(&third).0.len(), state1.0.len() + 1);
}

/// Clean close publishes a final checkpoint: the next open loads segments
/// only (zero WAL replay) and the state is identical — including the
/// physical layout the counters measure, at 1 AND 2 AP threads.
#[test]
fn clean_close_reopens_byte_identical_with_no_replay() {
    let dir = TmpDir::new("clean");
    let cfg = config();
    let sys = HtapSystem::open(&dir.0, &cfg).expect("open");
    for i in 0..10 {
        apply(&sys, decode((i * 3) as u8), 29, i);
    }
    let before = state(&sys);
    let freshness_before = sys.freshness("customer").unwrap();
    sys.close().expect("close");

    let mut reopened = HtapSystem::open(&dir.0, &cfg).expect("reopen");
    let report = reopened.recovery_report().unwrap();
    assert_eq!(report.wal_records_replayed, 0, "clean close leaves nothing to replay");
    assert_states_equal("clean reopen", &state(&reopened), &before);
    let freshness_after = reopened.freshness("customer").unwrap();
    assert_eq!(freshness_before.delta_rows, freshness_after.delta_rows);
    assert_eq!(freshness_before.base_rows, freshness_after.base_rows);

    // Parallel AP execution over recovered storage: identical rows and
    // counters (morsels straddle the recovered base/delta split).
    reopened.set_ap_threads(2);
    assert_states_equal("recovered state at 2 AP threads", &state(&reopened), &before);
}

/// Group commit under concurrency: every acknowledged statement survives
/// the crash-free reopen, and the fsync count stays well below the record
/// count (the batching win the policy exists for).
#[test]
fn group_commit_batches_fsyncs_and_loses_nothing() {
    let dir = TmpDir::new("group");
    let cfg = config();
    let sys = std::sync::Arc::new(
        HtapSystem::open_with(
            &dir.0,
            &cfg,
            DurabilityOptions {
                group_commit_dwell: Duration::from_millis(2),
                ..DurabilityOptions::default()
            },
        )
        .expect("open"),
    );
    let threads = 6;
    let per_thread = 20;
    let mut handles = Vec::new();
    for t in 0..threads {
        let sys = std::sync::Arc::clone(&sys);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let key = 2_000_000 + t * 10_000 + i;
                sys.execute_statement(&format!(
                    "INSERT INTO customer (c_custkey, c_name, c_nationkey, c_phone, \
                     c_acctbal, c_mktsegment) VALUES ({key}, 'c#{key}', 1, \
                     '20-000-000-0000', 10.25, 'machinery')"
                ))
                .expect("insert commits");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }
    let stats = sys.wal_stats().expect("durable system");
    assert_eq!(stats.records, (threads * per_thread) as u64);
    assert!(
        stats.fsyncs < stats.records,
        "group commit should batch: {} fsyncs for {} records",
        stats.fsyncs,
        stats.records
    );
    let before = state(&sys);
    drop(sys); // unclean

    let recovered = HtapSystem::open(&dir.0, &cfg).expect("recover");
    assert_states_equal("all acked concurrent inserts recovered", &state(&recovered), &before);
}

/// Background compaction (durable): equivalent to a synchronous compact —
/// live state, recovered state and the oracle all agree, and writes that
/// land *during* the build are preserved and correctly rid-translated in
/// the WAL.
#[test]
fn background_compaction_is_equivalent_and_recoverable() {
    let dir = TmpDir::new("bg");
    let cfg = config();
    let sys = HtapSystem::open(&dir.0, &cfg).expect("open");
    let oracle = HtapSystem::new(&cfg);
    for i in 0..8 {
        apply(&sys, decode((i * 5 + 1) as u8), 41, i);
        apply(&oracle, decode((i * 5 + 1) as u8), 41, i);
    }
    assert!(sys.background_compact_all().expect("bg compact") >= 1);
    oracle.compact("customer");
    // More writes after the swap, then crash.
    for i in 8..12 {
        apply(&sys, decode((i * 5 + 1) as u8), 41, i);
        apply(&oracle, decode((i * 5 + 1) as u8), 41, i);
    }
    let want = state(&oracle);
    assert_states_equal("live bg-compacted state", &state(&sys), &want);
    drop(sys); // unclean: replay must redo Compact + translated ops

    let recovered = HtapSystem::open(&dir.0, &cfg).expect("recover");
    assert_states_equal("recovered bg-compacted state", &state(&recovered), &want);
}

/// Sealed segments carry their physical encoding: a base compacted under a
/// forced FOR policy checkpoints as `ForInt` columns, and recovery replays
/// them identically — same representation (column discriminants), same rows,
/// same work counters, and the same bloom/zone pruning behaviour (blooms and
/// zone maps are recomputed deterministically from the recovered
/// representation, so a bloom-pruned point query charges identical counters
/// before and after the crash).
#[test]
fn forced_for_segments_and_bloom_pruning_replay_identically() {
    use qpe_htap::storage::col_store::{ColumnData, EncodingPolicy};

    let dir = TmpDir::new("forenc");
    let cfg = config();
    let fp = FailPoints::default();
    let mut sys = HtapSystem::open_with(&dir.0, &cfg, opts(fp.clone())).expect("open");
    assert!(sys.database_mut().set_encoding_policy("customer", EncodingPolicy::For));
    assert!(sys.database_mut().set_bloom_filters("customer", true));
    for i in 0..12 {
        apply(&sys, SimOp::Insert, 61, i);
    }
    sys.compact("customer");
    sys.checkpoint().expect("checkpoint seals the FOR base");
    // Post-checkpoint writes live in the WAL + delta only.
    for i in 12..16 {
        apply(&sys, SimOp::Insert, 61, i);
    }

    let for_columns = |sys: &HtapSystem| {
        let db = sys.database();
        let cols = &db.stored_table("customer").expect("customer exists").cols;
        [0, 2].map(|ci| matches!(cols.column(ci), ColumnData::ForInt(_)))
    };
    assert_eq!(for_columns(&sys), [true, true], "forced FOR base before the crash");
    let before = state(&sys);
    // A bloom-prunable point query over the sealed FOR base (key 12 landed
    // in the base segment; most blocks lack it and their blooms say so).
    let probe = "SELECT c_name FROM customer WHERE c_custkey = 1001891";
    let probe_before = sys.run_sql(probe).expect("probe");

    // Tear the 17th insert's WAL flush mid-record and kill the process.
    fp.arm_partial("wal", 1, 0.3);
    apply(&sys, SimOp::Insert, 61, 16);
    assert!(fp.crashed());
    drop(sys);

    let recovered = HtapSystem::open(&dir.0, &cfg).expect("recover");
    let report = recovered.recovery_report().expect("durable open has a report").clone();
    assert_eq!(report.wal_records_replayed, 4, "only the post-checkpoint inserts replay");
    assert!(report.torn_bytes_discarded > 0, "the torn 17th insert was measured");
    assert_eq!(
        for_columns(&recovered),
        [true, true],
        "sealed segments replay with their FOR representation intact"
    );
    assert_states_equal("forced-FOR recovery", &state(&recovered), &before);
    let probe_after = recovered.run_sql(probe).expect("probe recovered");
    assert_eq!(probe_after.tp.rows, probe_before.tp.rows, "probe rows diverge");
    assert_eq!(
        probe_after.ap.counters, probe_before.ap.counters,
        "recomputed blooms/zones must prune exactly as before the crash"
    );
}

/// The compactor thread keeps the table compacted while writers stay live:
/// with a tiny trigger threshold, sustained DML ends with bounded delta
/// debt and zero lost statements.
#[test]
fn compactor_thread_keeps_writers_live() {
    let dir = TmpDir::new("thread");
    let cfg = config();
    let sys = HtapSystem::open_with(
        &dir.0,
        &cfg,
        DurabilityOptions {
            background: Some(BackgroundCompaction {
                min_delta_rows: 8,
                poll: Duration::from_millis(1),
            }),
            ..DurabilityOptions::default()
        },
    )
    .expect("open");
    let oracle = HtapSystem::new(&cfg);
    for i in 0..60 {
        let op = match i % 3 {
            0 | 1 => SimOp::Insert,
            _ => SimOp::Delete,
        };
        apply(&sys, op, 53, i);
        apply(&oracle, op, 53, i);
        if i % 10 == 9 {
            // Give the compactor a chance to interleave mid-stream.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Rows never diverge from the oracle no matter where compactions
    // landed (the oracle is compaction-invariant on rows; counters differ
    // by layout, so compare rows only here).
    let got = state(&sys).0;
    let want = state(&oracle).0;
    assert_eq!(got, want, "compactor thread must not lose or duplicate rows");
    sys.close().expect("close");

    let recovered = HtapSystem::open(&dir.0, &cfg).expect("reopen");
    assert_eq!(state(&recovered).0, want);
}
