//! Read-only degraded mode, fault counters, and database-lock access that
//! recovers from a panicked writer.

use super::{Database, HtapError, HtapSystem};
use crate::storage::durable_io::{lock_unpoisoned, DurabilityError};
use crate::storage::wal::WalRecord;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shared mutable health status: degraded-mode latch plus fault counters.
/// One `Arc` is held by the system, another by the compactor thread.
pub(super) struct HealthState {
    /// Read-only degraded mode: writes are rejected until
    /// [`HtapSystem::resume_writes`] clears it.
    degraded: AtomicBool,
    /// Root cause recorded when `degraded` was first tripped.
    cause: Mutex<Option<String>>,
    /// One-shot latch for database-lock poison recovery: the first recovery
    /// after a writer panic trips degraded mode exactly once.
    poison_handled: AtomicBool,
    /// Writer panics observed through lock-poison recovery.
    writer_panics: AtomicU64,
    /// Background compaction cycles that returned an error.
    pub(super) compactor_failures: AtomicU64,
    /// Compaction candidates skipped because their table was backing off.
    pub(super) compactor_backoffs: AtomicU64,
}

impl HealthState {
    pub(super) fn new() -> HealthState {
        HealthState {
            degraded: AtomicBool::new(false),
            cause: Mutex::new(None),
            poison_handled: AtomicBool::new(false),
            writer_panics: AtomicU64::new(0),
            compactor_failures: AtomicU64::new(0),
            compactor_backoffs: AtomicU64::new(0),
        }
    }

    /// Enter degraded mode, recording `cause` if this is the first trip.
    pub(super) fn trip_degraded(&self, cause: &str) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            *lock_unpoisoned(&self.cause) = Some(cause.to_string());
        }
    }

    /// Leave degraded mode (after a successful write probe).
    fn clear_degraded(&self) {
        self.degraded.store(false, Ordering::SeqCst);
        *lock_unpoisoned(&self.cause) = None;
    }

    pub(super) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn cause_string(&self) -> String {
        lock_unpoisoned(&self.cause)
            .clone()
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// Called when a database-lock acquisition found the lock poisoned. The
    /// std `RwLock` only poisons when a *writer* panicked, so the committed
    /// copy-on-write state readers observe is still consistent — recovery is
    /// safe — but an interrupted write statement may have applied without
    /// reaching the WAL, so the first recovery trips degraded mode until an
    /// operator (or test) resumes writes deliberately.
    fn note_poisoned_db_lock(&self) {
        if !self.poison_handled.swap(true, Ordering::SeqCst) {
            self.writer_panics.fetch_add(1, Ordering::Relaxed);
            self.trip_degraded("database write lock poisoned by a panicking writer");
        }
    }
}

/// Point-in-time health snapshot from [`HtapSystem::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// True while the system is in read-only degraded mode.
    pub degraded: bool,
    /// Root cause of the current degradation, when degraded.
    pub degraded_cause: Option<String>,
    /// Writer panics absorbed through lock-poison recovery.
    pub writer_panics: u64,
    /// Background-compaction cycles that failed.
    pub compactor_failures: u64,
    /// Compaction candidates skipped while their table was backing off.
    pub compactor_backoffs: u64,
    /// Transient WAL fsync failures absorbed by the retry policy.
    pub wal_flush_retries: u64,
}

impl HtapSystem {
    /// Shared read access to the database. The guard holds the read lock —
    /// writes block while it lives, so keep it short-lived; any number of
    /// concurrent readers proceed in parallel.
    pub fn database(&self) -> RwLockReadGuard<'_, Database> {
        read_recovered(&self.db, &self.health)
    }

    /// Mutable database access (index creation, compaction knobs).
    /// Physical-design changes bump the affected table's design epoch, and
    /// cached plans revalidate their recorded epochs on hit — so unlike the
    /// old blanket cache clear, plans for untouched tables stay cached.
    /// The guard holds the write lock — keep it short-lived. Changes made
    /// through this handle bypass the WAL; on a durable system, follow up
    /// with [`HtapSystem::checkpoint`] if they must survive a crash.
    pub fn database_mut(&mut self) -> RwLockWriteGuard<'_, Database> {
        self.db_write()
    }

    pub(super) fn db_write(&self) -> RwLockWriteGuard<'_, Database> {
        write_recovered(&self.db, &self.health)
    }

    /// Point-in-time health snapshot: degraded-mode state plus the fault
    /// counters (writer panics absorbed, compactor failures/backoffs, WAL
    /// fsync retries).
    pub fn health(&self) -> Health {
        Health {
            degraded: self.health.is_degraded(),
            degraded_cause: if self.health.is_degraded() {
                Some(self.health.cause_string())
            } else {
                None
            },
            writer_panics: self.health.writer_panics.load(Ordering::Relaxed),
            compactor_failures: self.health.compactor_failures.load(Ordering::Relaxed),
            compactor_backoffs: self.health.compactor_backoffs.load(Ordering::Relaxed),
            wal_flush_retries: self
                .durability
                .as_ref()
                .map(|d| d.wal.flush_retries())
                .unwrap_or(0),
        }
    }

    /// Whether the system is currently read-only (degraded mode).
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
    }

    /// Rejects write statements while degraded.
    pub(super) fn check_writable(&self) -> Result<(), HtapError> {
        if self.health.is_degraded() {
            return Err(HtapError::ReadOnly { cause: self.health.cause_string() });
        }
        Ok(())
    }

    /// Trips degraded mode with the failing step as root cause and converts
    /// the durability error for propagation.
    pub(super) fn degrade_on(&self, what: &str, e: DurabilityError) -> HtapError {
        self.health.trip_degraded(&format!("{what} failed: {e}"));
        e.into()
    }

    /// Attempts to leave read-only degraded mode: revives the WAL, then
    /// probes it end to end (append + committed fsync of a no-op
    /// `Checkpoint` marker — ignored at replay). Only a successful probe
    /// lifts the degradation; a still-broken WAL leaves the system degraded
    /// and returns the probe's error. A *crashed* failpoint state is
    /// permanent by design (the process is simulating a kill) and is never
    /// lifted.
    pub fn resume_writes(&self) -> Result<(), HtapError> {
        if let Some(d) = &self.durability {
            if d.fp.crashed() {
                return Err(DurabilityError::Crashed.into());
            }
            d.wal.revive();
            let version = d.version.load(Ordering::SeqCst);
            let lsn = d
                .wal
                .append(&[WalRecord::Checkpoint { version }])
                .map_err(HtapError::from)?;
            d.wal.commit(lsn).map_err(HtapError::from)?;
        }
        self.health.clear_degraded();
        // Poison recovery may arm again after a genuine new writer panic.
        self.health.poison_handled.store(false, Ordering::SeqCst);
        Ok(())
    }
}

/// Read-lock the database, recovering (and recording) a poisoned lock.
/// Safe per the MVCC design: readers only ever observe committed
/// copy-on-write state, so a writer's panic cannot leave a torn row/column
/// visible — see [`HealthState::note_poisoned_db_lock`].
pub(super) fn read_recovered<'a>(
    db: &'a RwLock<Database>,
    health: &HealthState,
) -> RwLockReadGuard<'a, Database> {
    recovered(db, health, db.read())
}

/// Write-lock twin of [`read_recovered`].
pub(super) fn write_recovered<'a>(
    db: &'a RwLock<Database>,
    health: &HealthState,
) -> RwLockWriteGuard<'a, Database> {
    recovered(db, health, db.write())
}

/// The guard of either lock, poisoned or not.
fn recovered<G>(db: &RwLock<Database>, health: &HealthState, locked: LockResult<G>) -> G {
    locked.unwrap_or_else(|poisoned| {
        health.note_poisoned_db_lock();
        // Clear the flag so one panic is one incident: without this,
        // every access after `resume_writes()` would re-trip degraded
        // mode on the same long-dead poison.
        db.clear_poison();
        poisoned.into_inner()
    })
}
