//! Durable mode: opening and recovering a data directory, checkpoints,
//! WAL-logged compaction and the background compactor thread.

use super::health::{read_recovered, write_recovered, HealthState};
use super::{Database, HtapError, HtapSystem};
use crate::storage::durable_io::{
    lock_unpoisoned, DurabilityError, DurableFile, FailPoints, RetryPolicy,
};
use crate::storage::persist::{self, Manifest, SegmentRef, MANIFEST_FORMAT};
use crate::storage::wal::{self, Wal, WalRecord, WalStats};
use crate::tpch::TpchConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How a durable system logs, retries and compacts.
///
/// The WAL group-commits: concurrent committers share one fsync (see
/// [`crate::storage::wal`]).
#[derive(Debug, Clone, Default)]
pub struct DurabilityOptions {
    /// How long a WAL flush leader waits for more committers to join its
    /// fsync batch. Zero (the default) flushes at once; batching then comes
    /// only from commits that arrive while an fsync is in flight.
    pub group_commit_dwell: Duration,
    /// Crash-injection hooks (tests only; `FailPoints::default()` is inert
    /// and adds one relaxed atomic load per durable write).
    pub failpoints: FailPoints,
    /// When set, a dedicated thread compacts tables off the write lock.
    pub background: Option<BackgroundCompaction>,
    /// Bounded retry (exponential backoff + jitter) wrapped around every
    /// transiently-failing durable I/O step: WAL fsyncs, segment seals, the
    /// manifest swap. Exhausted retries — or a non-retryable error like
    /// ENOSPC — trip read-only degraded mode instead of looping forever.
    pub retry: RetryPolicy,
}

/// Background-compaction tuning for [`HtapSystem::open_with`].
#[derive(Debug, Clone)]
pub struct BackgroundCompaction {
    /// Compact a table once `delta rows + tombstones` reaches this.
    pub min_delta_rows: usize,
    /// How often the compactor thread re-checks the tables.
    pub poll: Duration,
}

impl Default for BackgroundCompaction {
    fn default() -> Self {
        BackgroundCompaction {
            min_delta_rows: 4096,
            poll: Duration::from_millis(20),
        }
    }
}

/// What [`HtapSystem::open_with`] found and did on startup.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// True when the directory was empty and the database was generated
    /// fresh (no recovery happened).
    pub created: bool,
    /// Manifest version the segments were loaded from.
    pub manifest_version: u64,
    /// Tables materialized from persistent segments.
    pub tables_loaded: usize,
    /// WAL records replayed on top of the segment snapshot.
    pub wal_records_replayed: u64,
    /// WAL generation files the replay walked.
    pub wal_files_replayed: usize,
    /// Bytes discarded from torn (partially flushed) WAL tails.
    pub torn_bytes_discarded: u64,
    /// Wall-clock time of the whole open (load + replay + index rebuild).
    pub elapsed: Duration,
}

/// Durable-mode state shared by the write path, the checkpointer and the
/// background compactor.
pub(super) struct DurabilityCtx {
    /// Data directory holding `manifest.json`, `*.seg` and `wal.N`.
    dir: PathBuf,
    /// Group-commit write-ahead log (active generation).
    pub(super) wal: Wal,
    /// Crash-injection hooks threaded through every durable I/O site.
    pub(super) fp: FailPoints,
    /// Version counter: the last published manifest/checkpoint version.
    pub(super) version: AtomicU64,
    /// Serializes checkpoints, durable sync compacts and background
    /// compaction runs against each other. Critically this means a durable
    /// `Compact` WAL record is only ever appended while no *other*
    /// compaction's rid remap is armed, so log order ≡ replay order.
    /// Lock order: `ckpt_lock` before the db lock, never the reverse.
    ckpt_lock: Mutex<()>,
    /// Retry policy for segment seals and manifest swaps (the WAL holds its
    /// own copy and retries its fsyncs internally).
    retry: RetryPolicy,
}

/// Cap on the compactor's per-table backoff exponent: a repeatedly-failing
/// table is skipped for at most `2^6 = 64` polls between attempts.
const COMPACTOR_MAX_BACKOFF_EXP: u32 = 6;

/// Stop flag + wakeup for the background compactor thread.
struct CompactorShared {
    stop: Mutex<bool>,
    cv: Condvar,
}

pub(super) struct CompactorHandle {
    shared: Arc<CompactorShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    fn stop(&mut self) {
        *lock_unpoisoned(&self.shared.stop) = true;
        self.shared.cv.notify_all();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl HtapSystem {
    /// Opens (or creates) a durable system in `dir` with default options:
    /// group-commit WAL, no failpoints, no background compactor.
    ///
    /// First open of an empty directory generates the database from
    /// `config` and seals it as checkpoint 1; any later open ignores
    /// `config` (the manifest's own config wins — the recovered data was
    /// generated under it) and recovers: load the manifest's segments,
    /// replay the WAL chain past the last checkpoint, rebuild indexes and
    /// statistics. After recovery, TP scans, AP scans and index lookups see
    /// exactly the committed pre-crash state.
    pub fn open(dir: impl AsRef<Path>, config: &TpchConfig) -> Result<Self, HtapError> {
        Self::open_with(dir, config, DurabilityOptions::default())
    }

    /// [`HtapSystem::open`] with explicit [`DurabilityOptions`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: &TpchConfig,
        opts: DurabilityOptions,
    ) -> Result<Self, HtapError> {
        let started = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DurabilityError::Io(format!("create {}: {e}", dir.display())))?;
        let fp = opts.failpoints.clone();

        let manifest = persist::read_manifest(&dir)?;
        let (db, wal, version, report) = match manifest {
            None => {
                // Fresh directory: generate, then seal everything as
                // checkpoint 1 so a crash right after open recovers to the
                // same generated state.
                let db = Database::generate(config);
                let wal_path = dir.join(persist::wal_file_name(1));
                let wal_file = DurableFile::create_log(&wal_path, fp.clone(), "wal")?;
                let wal = Wal::with_retry(wal_file, opts.group_commit_dwell, opts.retry.clone());
                let m = seal(&dir, &db, 1, &opts.retry, &fp).map_err(|(_, e)| e)?;
                persist::write_manifest(&dir, &m, &fp)?;
                let report = RecoveryReport {
                    created: true,
                    manifest_version: 1,
                    tables_loaded: m.tables.len(),
                    wal_records_replayed: 0,
                    wal_files_replayed: 0,
                    torn_bytes_discarded: 0,
                    elapsed: started.elapsed(),
                };
                (db, wal, 1, report)
            }
            Some(m) => {
                // Recover: segments give the checkpointed snapshot, the WAL
                // chain replays everything committed since.
                let mut col_tables = Vec::with_capacity(m.tables.len());
                for seg in &m.tables {
                    let cols = persist::read_segment(&dir.join(&seg.file))?;
                    if cols.name() != seg.table {
                        return Err(DurabilityError::Corrupt(format!(
                            "segment {} holds table {:?}, manifest says {:?}",
                            seg.file,
                            cols.name(),
                            seg.table
                        ))
                        .into());
                    }
                    col_tables.push(cols);
                }
                let tables_loaded = col_tables.len();
                let mut db = Database::from_recovered(
                    m.catalog.clone(),
                    m.stats.clone(),
                    m.config.clone(),
                    col_tables,
                )?;
                let chain = persist::wal_chain(&dir, m.wal_gen);
                let mut records_replayed = 0u64;
                let mut torn_bytes = 0u64;
                for (_, path) in &chain {
                    let outcome = wal::read_wal_file(path)?;
                    torn_bytes += outcome.truncated_bytes;
                    for rec in outcome.records {
                        db.replay_wal_record(rec);
                        records_replayed += 1;
                    }
                }
                // The newest generation (which replay just truncated to its
                // last whole record) becomes the active log again.
                let (active_gen, active_path) = chain
                    .last()
                    .cloned()
                    .unwrap_or_else(|| (m.wal_gen, dir.join(persist::wal_file_name(m.wal_gen))));
                let wal_file = if active_path.exists() {
                    DurableFile::open_append(&active_path, fp.clone(), "wal")?
                } else {
                    DurableFile::create_log(&active_path, fp.clone(), "wal")?
                };
                let wal = Wal::with_retry(wal_file, opts.group_commit_dwell, opts.retry.clone());
                persist::clean_stale(&dir, &m);
                let report = RecoveryReport {
                    created: false,
                    manifest_version: m.version,
                    tables_loaded,
                    wal_records_replayed: records_replayed,
                    wal_files_replayed: chain.len(),
                    torn_bytes_discarded: torn_bytes,
                    elapsed: started.elapsed(),
                };
                (db, wal, m.version.max(active_gen), report)
            }
        };

        let mut sys = HtapSystem::with_database(db);
        sys.durability = Some(Arc::new(DurabilityCtx {
            dir,
            wal,
            fp,
            version: AtomicU64::new(version),
            ckpt_lock: Mutex::new(()),
            retry: opts.retry,
        }));
        sys.recovery = Some(report);
        if let Some(bg) = opts.background {
            sys.start_compactor(bg);
        }
        Ok(sys)
    }

    /// The startup report, when this system was opened from a directory.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// WAL throughput counters (records appended, fsyncs issued), when
    /// durable. `fsyncs < records` is the group-commit win.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.wal.stats())
    }

    /// Publishes a checkpoint: rotates the WAL to a fresh generation, seals
    /// every table's current column-store state into versioned segment
    /// files, swaps the manifest atomically, and removes the WAL
    /// generations the new manifest no longer needs. Readers proceed
    /// throughout; writers are excluded only while the snapshot is taken
    /// (O(tables × width) `Arc` clones). Returns the new version.
    pub fn checkpoint(&self) -> Result<u64, HtapError> {
        self.check_writable()?;
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| DurabilityError::Io("checkpoint on a non-durable system".into()))?;
        let _ckpt = lock_unpoisoned(&d.ckpt_lock);
        let version = d.version.load(Ordering::SeqCst) + 1;
        let new_wal_path = d.dir.join(persist::wal_file_name(version));
        let new_wal = DurableFile::create_log(&new_wal_path, d.fp.clone(), "wal")?;
        // Read lock: DML takes the write lock, so nothing can commit between
        // the rotation point and the snapshot — the segments hold exactly
        // the state the old log's tail described.
        let db = self.database();
        d.wal
            .rotate(new_wal, WalRecord::Checkpoint { version })
            .map_err(|e| self.degrade_on("wal rotate", e))?;
        let snap = db.pin_snapshot();
        drop(db);
        let m = seal(&d.dir, &snap, version, &d.retry, &d.fp)
            .map_err(|(what, e)| self.degrade_on(what, e))?;
        let (swapped, _) = d.retry.run(|| persist::write_manifest(&d.dir, &m, &d.fp));
        swapped.map_err(|e| self.degrade_on("manifest swap", e))?;
        d.version.store(version, Ordering::SeqCst);
        persist::clean_stale(&d.dir, &m);
        Ok(version)
    }

    /// Graceful shutdown: stop the compactor, publish a final checkpoint
    /// (so the next open recovers from segments alone, replaying nothing).
    pub fn close(mut self) -> Result<(), HtapError> {
        if let Some(mut c) = self.compactor.take() {
            c.stop();
        }
        if self.durability.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn start_compactor(&mut self, cfg: BackgroundCompaction) {
        let db = Arc::clone(&self.db);
        let durability = self.durability.clone();
        let health = Arc::clone(&self.health);
        let shared = Arc::new(CompactorShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("qpe-compactor".into())
            .spawn(move || {
                // Per-table consecutive-failure counts drive an exponential
                // backoff: a table whose compaction failed f times in a row
                // is skipped for the next 2^f polls (capped), so a
                // persistent fault on one table can't spin this thread while
                // healthy tables keep compacting. Every failure and every
                // backoff skip is counted into [`HealthState`].
                let mut failures: HashMap<String, u32> = HashMap::new();
                let mut skip_until: HashMap<String, u64> = HashMap::new();
                let mut tick: u64 = 0;
                loop {
                    {
                        let stop = lock_unpoisoned(&thread_shared.stop);
                        if *stop {
                            return;
                        }
                        let (stop, _) = thread_shared
                            .cv
                            .wait_timeout(stop, cfg.poll)
                            .unwrap_or_else(|e| e.into_inner());
                        if *stop {
                            return;
                        }
                    }
                    tick += 1;
                    // Degraded mode: the WAL is down, so a durable compact's
                    // Compact record can't be logged — don't grind on it.
                    if durability.is_some() && health.is_degraded() {
                        continue;
                    }
                    let candidates = read_recovered(&db, &health).indebted(cfg.min_delta_rows);
                    for table in candidates {
                        if skip_until.get(&table).is_some_and(|&until| tick < until) {
                            health.compactor_backoffs.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        match background_compact_once(&db, durability.as_deref(), &health, &table)
                        {
                            Ok(_) => {
                                failures.remove(&table);
                                skip_until.remove(&table);
                            }
                            Err(_) => {
                                let f = failures.entry(table.clone()).or_insert(0);
                                *f = (*f + 1).min(COMPACTOR_MAX_BACKOFF_EXP);
                                health.compactor_failures.fetch_add(1, Ordering::Relaxed);
                                skip_until.insert(table, tick + (1u64 << *f));
                            }
                        }
                    }
                }
            })
            .expect("spawn compactor thread");
        self.compactor = Some(CompactorHandle {
            shared,
            join: Some(join),
        });
    }

    /// Runs one background-compaction pass over every table that has any
    /// delta rows or tombstones, regardless of thresholds. Exposed for
    /// tests and benchmarks; the compactor thread does the same thing on a
    /// timer.
    pub fn background_compact_all(&self) -> Result<usize, HtapError> {
        self.check_writable()?;
        let tables = self.database().indebted(1);
        let mut n = 0;
        for table in tables {
            if background_compact_once(&self.db, self.durability.as_deref(), &self.health, &table)?
            {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Compacts one table (merging the AP delta into the base and dropping
    /// row-store tombstones). Takes the write lock internally. Returns false
    /// for an unknown table. On a durable system the compaction is
    /// WAL-logged (replay re-runs it at the same point in the op stream).
    pub fn compact(&self, table: &str) -> bool {
        let Some(d) = &self.durability else {
            return self.db_write().compact_table(table);
        };
        // Degraded mode: a durable compact cannot log its Compact record.
        if self.health.is_degraded() {
            return false;
        }
        // ckpt_lock: a durable sync compact must not interleave with a
        // background build's armed remap (see DurabilityCtx).
        let _ckpt = lock_unpoisoned(&d.ckpt_lock);
        let mut db = self.db_write();
        let Some(dirty) = db.tables.get(table).map(|st| st.is_dirty()) else {
            return false;
        };
        // Only a dirty table's compaction changes state, so only it is logged.
        let log = || d.wal.append(&[WalRecord::Compact { table: table.to_string() }]);
        let Ok(lsn) = dirty.then(log).transpose() else {
            return false;
        };
        db.compact_table(table);
        drop(db);
        lsn.is_none_or(|lsn| d.wal.commit(lsn).is_ok())
    }
}

impl Drop for HtapSystem {
    fn drop(&mut self) {
        if let Some(mut c) = self.compactor.take() {
            c.stop();
        }
        // Crash-consistency means an unclean drop loses nothing committed;
        // flushing here is just courtesy for buffered-but-unacked appends.
        if let Some(d) = &self.durability {
            let _ = d.wal.flush_all();
        }
    }
}

/// One background-compaction cycle for one table: snapshot under a brief
/// write lock, build the compacted state (encode, zones, stats, indexes)
/// entirely off-lock, swap it in under a second brief lock and re-apply
/// the writes that landed in between. On a durable system the `Compact`
/// record is appended at the snapshot point and every concurrent write's
/// WAL record is rid-translated into the post-compaction space, so replay
/// reproduces the exact same state.
///
/// Returns `Ok(false)` when there was nothing to compact or a synchronous
/// compact made the build stale.
fn background_compact_once(
    db: &RwLock<Database>,
    durability: Option<&DurabilityCtx>,
    health: &HealthState,
    table: &str,
) -> Result<bool, HtapError> {
    // Held for the whole cycle when durable: checkpoints and durable sync
    // compacts never observe a half-done background build's remap.
    let _ckpt = durability.map(|d| lock_unpoisoned(&d.ckpt_lock));
    let durable = durability.is_some();
    let mut lsn = None;
    let snapshot = {
        let mut db = write_recovered(db, health);
        let Some(snapshot) = db.begin_background_compact(table, durable) else {
            return Ok(false);
        };
        if let Some(d) = durability {
            match d.wal.append(&[WalRecord::Compact {
                table: table.to_string(),
            }]) {
                Ok(l) => lsn = Some(l),
                Err(e) => {
                    db.abort_background_compact(table);
                    return Err(e.into());
                }
            }
        }
        snapshot
    };
    // Append under the lock fixed the record's position; the swap below
    // publishes the matching in-memory state.
    let built = snapshot.build();
    let swapped = {
        let mut db = write_recovered(db, health);
        db.finish_background_compact(table, built)
    };
    if let (Some(d), Some(lsn)) = (durability, lsn) {
        // Commit (fsync) the Compact record so a compaction is only
        // reported successful once its record is durable. On failure the
        // swap stands — memory and the WAL buffer still agree, and the
        // record flushes with the next successful sync — but the error
        // feeds the compactor's failure accounting and the WAL's dead
        // latch turns the next write into a degraded-mode trip.
        d.wal.commit(lsn)?;
    }
    Ok(swapped)
}

/// Seals every table of `db` into version-`version` segment files, sorted
/// by name, and returns the manifest that publishes them. A checkpoint
/// passes a pinned snapshot, so each segment holds the head
/// [`crate::storage::ColumnTable::view_at`] that MVCC reads pin. Re-creating
/// a segment file is idempotent, so a transient failure anywhere inside one
/// write retries that whole file. An error names the step that failed.
fn seal(
    dir: &Path,
    db: &Database,
    version: u64,
    retry: &RetryPolicy,
    fp: &FailPoints,
) -> Result<Manifest, (&'static str, DurabilityError)> {
    let mut names: Vec<&String> = db.tables.keys().collect();
    names.sort();
    let mut tables = Vec::with_capacity(names.len());
    for name in names {
        let file = persist::segment_file_name(name, version);
        let cols = &db.tables[name].cols;
        let (sealed, _) = retry.run(|| persist::write_segment(&dir.join(&file), cols, fp.clone()));
        sealed.map_err(|e| ("segment seal", e))?;
        tables.push(SegmentRef { table: name.clone(), file });
    }
    let (hit, _) = retry.run(|| fp.hit("ckpt:after_segments"));
    hit.map_err(|e| ("checkpoint", e))?;
    Ok(Manifest {
        format: MANIFEST_FORMAT,
        version,
        wal_gen: version,
        catalog: (*db.catalog).clone(),
        stats: (*db.stats).clone(),
        config: db.config.clone(),
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::value::Value;

    /// `HtapSystem::compact`'s contract: a clean known table is a
    /// successful no-op, an unknown table or a degraded durable system
    /// reports failure, and a sync compact racing a background build
    /// compacts while the build's swap aborts.
    #[test]
    fn compact_contract() {
        let sys = HtapSystem::new(&TpchConfig::with_scale(0.002));
        let clean = sys.freshness("nation").unwrap();
        let epoch = sys.database().design_epoch("nation");
        assert!(sys.compact("nation"), "a clean known table compacts");
        assert_eq!(sys.freshness("nation").unwrap().version, clean.version);
        assert_eq!(sys.database().design_epoch("nation"), epoch);
        assert!(!sys.compact("no_such_table"));

        sys.execute_statement("DELETE FROM nation WHERE n_nationkey = 3").unwrap();
        let build = sys.db_write().begin_background_compact("nation", false).expect("dirty");
        sys.execute_statement("DELETE FROM nation WHERE n_nationkey = 4").unwrap();
        assert!(sys.compact("nation"), "a sync compact wins over an in-flight build");
        let fresh = sys.freshness("nation").unwrap();
        assert_eq!((fresh.delta_rows, fresh.deleted_rows), (0, 0));
        assert!(!sys.db_write().finish_background_compact("nation", build.build()));
        let count = sys.run_sql("SELECT COUNT(*) FROM nation").unwrap();
        assert_eq!(count.tp.rows, vec![vec![Value::Int(23)]]);

        let dir = std::env::temp_dir().join(format!("qpe-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = HtapSystem::open(&dir, &TpchConfig::with_scale(0.0005)).unwrap();
        durable.execute_statement("DELETE FROM nation WHERE n_nationkey = 3").unwrap();
        durable.health.trip_degraded("test");
        assert!(!durable.compact("nation"), "a degraded durable system cannot log Compact");
        assert_eq!(durable.freshness("nation").unwrap().deleted_rows, 1);
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
